"""Runtime dtype sanitizer for the autodiff engine.

The static RPR001 rule catches the promotions it can see; this context
manager catches the ones it can't — any :class:`repro.tensor.Tensor`
operation whose float32 inputs yield a float64/complex128 result at
runtime.  It observes ``Tensor.from_op`` (the funnel every primitive's
output passes through), so one observer covers the whole op surface::

    with dtype_sanitizer():
        model(Tensor(x32))     # raises DtypePromotionError on any widening

Opt-in and cheap (one dtype comparison per op).  ``mode="record"``
collects violations instead of raising — used by the benchmark
``--sanitize`` flag to report every widening in one run.  Nested
contexts compose; the observer is registered with a count and removed
when the outermost context exits.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

__all__ = ["DtypePromotionError", "SanitizerReport", "dtype_sanitizer"]

_NARROW = (np.float32, np.complex64)
_WIDE = (np.float64, np.complex128)


class DtypePromotionError(AssertionError):
    """A float32-input tensor op produced a float64/complex128 result."""


@dataclass
class SanitizerReport:
    """Violations observed inside one ``dtype_sanitizer`` context."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


_state = threading.local()


def _active_reports() -> list[SanitizerReport]:
    return getattr(_state, "reports", [])


def _check_promotion(out_dtype, parent_dtypes) -> str | None:
    """Message when ``out_dtype`` widens purely-narrow inputs, else None."""
    narrow_parents = [d for d in parent_dtypes if d in _NARROW]
    wide_parents = [d for d in parent_dtypes if d in _WIDE]
    if not narrow_parents:
        return None  # float64 pipeline: widening is the contract
    names = sorted(np.dtype(d).name for d in parent_dtypes)
    if wide_parents:
        # Mixed precision going in — promotion is numpy semantics, but the
        # mix itself is the bug on a float32 path.
        return (
            f"mixed-precision op: inputs {names} -> {np.dtype(out_dtype).name}; "
            f"an upstream operand already leaked to float64"
        )
    if out_dtype in _WIDE:
        return (
            f"silent dtype promotion: all-float32 inputs -> "
            f"{np.dtype(out_dtype).name}; this op erases the f32 speedup"
        )
    return None


def _check(out, parents) -> None:
    """The ``Tensor.from_op`` observer: check this thread's op outputs."""
    reports = _active_reports()
    if reports:
        message = _check_promotion(out.data.dtype.type, [p.data.dtype.type for p in parents])
        if message is not None:
            for report in reports:
                report.violations.append(message)
            if getattr(_state, "raise_on_violation", True):
                raise DtypePromotionError(message)


@contextmanager
def dtype_sanitizer(mode: str = "raise"):
    """Assert no tensor op widens float32 inputs to float64/complex128.

    ``mode="raise"`` (default) raises :class:`DtypePromotionError` at the
    offending op; ``mode="record"`` only collects messages.  Yields a
    :class:`SanitizerReport` either way.  The check is thread-local: only
    the threads that entered the context are sanitized.
    """
    if mode not in ("raise", "record"):
        raise ValueError("mode must be 'raise' or 'record'")
    report = SanitizerReport()
    reports = getattr(_state, "reports", None)
    if reports is None:
        reports = _state.reports = []
    previous_raise = getattr(_state, "raise_on_violation", True)
    from ..tensor.tensor import add_observer, remove_observer

    add_observer(_check)
    reports.append(report)
    _state.raise_on_violation = mode == "raise"
    try:
        yield report
    finally:
        reports.remove(report)
        _state.raise_on_violation = previous_raise
        remove_observer(_check)
