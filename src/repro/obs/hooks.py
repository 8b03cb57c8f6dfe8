"""Profiling: one flag, read once per call by the timed loops.

:func:`profile` sets :data:`PROFILING` for a block and changes nothing
else, so a profiled run executes the same program as an unprofiled one:
the same compiled plans with their direct pocketfft transforms, and no
extra tensor-op observer.  Two kinds of loop read the flag:

* **Solver steps** — :class:`repro.ns.NSSolverBase` and
  :class:`repro.lbm.LBMSolver2D` check it once per ``advance()``/``step()``
  call (not per grid point) and, when set, report step counts and wall
  time through :func:`record_solver_advance`.
* **Compiled plan steps** — :class:`repro.compile.CompiledPlan` checks it
  once per execution and, when set, adds each step's wall time to
  ``plan.step_seconds`` (``repro compile --profile`` turns those into
  per-op and per-module rows).

With the flag off each call site costs one module-attribute read.  The
switch is reference-counted, so nested and interleaved ``profile()``
blocks, in any thread, leave the flag set until the last one exits.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

__all__ = ["PROFILING", "profile", "record_solver_advance"]

# Read by the solver step loops and compiled plans; written only under _lock.
PROFILING = False

_lock = threading.Lock()
_depth = 0  # active profile() contexts


def _adjust(delta: int) -> None:
    global _depth, PROFILING
    with _lock:
        _depth += delta
        PROFILING = _depth > 0


@contextmanager
def profile():
    """Set :data:`PROFILING` for a block (refcounted)."""
    _adjust(1)
    try:
        yield
    finally:
        _adjust(-1)


def record_solver_advance(solver_name: str, n_steps: int, seconds: float) -> None:
    """Called by solver loops after an ``advance()``/``step()`` burst.

    Call sites guard on :data:`PROFILING`, so this only runs (and only
    touches the registry) while a :func:`profile` block is active.
    """
    from . import metrics_registry

    registry = metrics_registry()
    registry.counter("solver_steps_total", labels={"solver": solver_name}).inc(n_steps)
    registry.summary("solver_advance_seconds").observe(seconds)
