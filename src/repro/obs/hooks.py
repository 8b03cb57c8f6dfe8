"""Hot-path profiling hooks — zero cost unless explicitly enabled.

Three hook points, chosen so the disabled state leaves the hot paths
untouched:

* **Tensor op dispatch** — ``Tensor.from_op`` (the funnel every autodiff
  primitive's output passes through) calls the observers registered
  with :func:`repro.tensor.tensor.add_observer`.  While profiling is on,
  one of them counts ops and output elements (the dtype sanitizer
  registers its check the same way); when it is off, the per-op cost is
  one read of an empty tuple.
* **FFT calls** — :mod:`repro.tensor.fft_ops` resolves ``_fft.rfftn`` /
  ``_fft.irfftn`` at call time, so swapping the module's ``_fft``
  attribute for a counting proxy intercepts every spectral transform.
* **Solver steps** — :class:`repro.ns.NSSolverBase` and
  :class:`repro.lbm.LBMSolver2D` check the module-level
  :data:`PROFILING` flag once per ``advance()``/``step()`` call (not per
  grid point) and report step counts + wall time here when it is set.
* **Compiled plan steps** — :class:`repro.compile.CompiledPlan` reads
  the same flag once per execution and, when set, adds each step's wall
  time to ``plan.step_seconds``.  :func:`step_timing` sets the flag
  alone, without the op/FFT patches (a swapped ``_fft`` sends plans
  back to the scipy wrappers, which would time a different program).

Enabling is reference-counted so nested ``profile()`` contexts compose;
counts land in the registry returned by :func:`repro.obs.metrics_registry`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

__all__ = ["PROFILING", "profile", "step_timing", "enable_profiling",
           "disable_profiling", "record_solver_advance"]

# Read by the solver step loops; written only under _lock below.
PROFILING = False

_lock = threading.Lock()
_depth = 0  # active profile() contexts (hooks installed while > 0)
_timing_depth = 0  # active step_timing() contexts
_count_ops = None
_original_fft = None


def _registry():
    from . import metrics_registry

    return metrics_registry()


class _CountingFFT:
    """Proxy over ``scipy.fft`` counting calls per transform name."""

    def __init__(self, wrapped):
        self._wrapped = wrapped

    def __getattr__(self, name):
        fn = getattr(self._wrapped, name)
        if not callable(fn):
            return fn
        counter = _registry().counter("fft_calls_total", labels={"fn": name})
        timer = _registry().histogram("fft_seconds")

        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counter.inc()
                timer.observe(time.perf_counter() - start)

        # Cache on the instance so the closure is built once per name.
        setattr(self, name, counted)
        return counted


def _install() -> None:
    global _depth, _count_ops, _original_fft
    from ..tensor import fft_ops, tensor

    with _lock:
        _depth += 1
        if _depth > 1:
            return
        registry = _registry()
        op_counter = registry.counter("tensor_ops_total")
        elem_counter = registry.counter("tensor_op_elements_total")

        def count_ops(out, parents) -> None:
            op_counter.inc()
            elem_counter.inc(out.data.size)

        _count_ops = count_ops
        tensor.add_observer(count_ops)
        _original_fft = fft_ops._fft
        fft_ops._fft = _CountingFFT(_original_fft)
        _set_flag()


def _uninstall() -> None:
    global _depth, _count_ops, _original_fft
    from ..tensor import fft_ops, tensor

    with _lock:
        _depth -= 1
        if _depth > 0:
            return
        tensor.remove_observer(_count_ops)
        fft_ops._fft = _original_fft
        _count_ops = None
        _original_fft = None
        _set_flag()


def _set_flag() -> None:
    """Recompute :data:`PROFILING` from both depths (caller holds _lock)."""
    global PROFILING
    PROFILING = _depth > 0 or _timing_depth > 0


def enable_profiling() -> None:
    """Install the hot-path hooks (refcounted; pair with disable)."""
    _install()


def disable_profiling() -> None:
    _uninstall()


@contextmanager
def profile():
    """Run a block with the hot-path hooks installed."""
    _install()
    try:
        yield
    finally:
        _uninstall()


@contextmanager
def step_timing():
    """Set :data:`PROFILING` for a block without installing the hooks.

    Counted like :func:`profile`: the flag stays set while either kind of
    context is active, however the two interleave across threads.
    """
    global _timing_depth
    with _lock:
        _timing_depth += 1
        _set_flag()
    try:
        yield
    finally:
        with _lock:
            _timing_depth -= 1
            _set_flag()


def record_solver_advance(solver_name: str, n_steps: int, seconds: float) -> None:
    """Called by solver loops after an ``advance()``/``step()`` burst.

    Call sites guard on :data:`PROFILING`, so this only runs (and only
    touches the registry) while a :func:`profile` context is active.
    """
    registry = _registry()
    registry.counter("solver_steps_total", labels={"solver": solver_name}).inc(n_steps)
    registry.histogram("solver_advance_seconds").observe(seconds)
