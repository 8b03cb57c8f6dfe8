"""Op-level trace recording and the op table for the compiler.

:mod:`repro.compile` builds frozen execution plans by running a model's
``forward`` once under a recording context and capturing the linear
sequence of tensor primitives it executes.  This module owns the hook
and the op table: every differentiable primitive in
:mod:`repro.tensor.ops` and every fused spectral op in
:mod:`repro.tensor.fft_ops` is registered with :func:`primitive` at
module-definition time, which records its shared forward (and, for the
ops a training plan supports, its VJP) in :data:`PRIMITIVES` and wraps
it with :func:`traced`, so the wrapped
function *is* the public op — ``from repro.tensor import gelu`` and the
installed ``Tensor`` dunders both resolve to it.

Design constraints:

* **Zero overhead when idle.**  The wrapper costs one thread-local
  attribute read per op call when no recorder is active; nothing else.
* **Thread-local recording.**  A serve worker tracing a plan must never
  observe ops executed by its siblings, so the active recorder lives in
  ``threading.local`` state.
* **Provenance safety.**  Tensors produced by *unwrapped* paths (e.g.
  ``Tensor.astype``) would silently be captured as constants by the plan
  builder, freezing one call's value into every future execution.  While
  any recorder is active, :meth:`Tensor.from_op` is patched to tag every
  op-produced tensor; the plan builder refuses to treat a tagged tensor
  of unknown provenance as a constant and falls back to eager execution
  instead.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from .tensor import Tensor

__all__ = [
    "TraceRecord", "Recorder", "traced", "recording_active",
    "Primitive", "PRIMITIVES", "primitive",
]


@dataclass
class TraceRecord:
    """One primitive executed during a recorded forward pass."""

    op: str
    args: tuple
    kwargs: dict
    out: Tensor
    # The innermost module whose ``forward`` issued the op (None = none).
    module: Any = None


class _ActiveState(threading.local):
    recorder: "Recorder | None" = None


_ACTIVE = _ActiveState()

# Identities of tensors produced by Tensor.from_op while any recorder was
# live, shared across threads (see module docstring).  Guarded by _LOCK.
_FROM_OP_IDS: set[int] = set()
_LOCK = threading.Lock()
_RECORDER_COUNT = 0
_ORIG_FROM_OP: Callable | None = None


def _tagging_from_op(data, parents, backward):
    out = _ORIG_FROM_OP(data, parents, backward)
    with _LOCK:
        _FROM_OP_IDS.add(id(out))
    return out


def _install_from_op_tag() -> None:
    global _RECORDER_COUNT, _ORIG_FROM_OP
    with _LOCK:
        if _RECORDER_COUNT == 0:
            _ORIG_FROM_OP = Tensor.from_op
            Tensor.from_op = staticmethod(_tagging_from_op)
        _RECORDER_COUNT += 1


def _remove_from_op_tag() -> None:
    global _RECORDER_COUNT
    with _LOCK:
        _RECORDER_COUNT -= 1
        if _RECORDER_COUNT == 0:
            Tensor.from_op = staticmethod(_ORIG_FROM_OP)
            _FROM_OP_IDS.clear()


@dataclass
class Recorder:
    """Collects :class:`TraceRecord` entries for one forward pass.

    Use as a context manager; at most one recorder per thread may be
    active at a time (nested tracing is a programming error).
    """

    records: list[TraceRecord] = field(default_factory=list)

    def __enter__(self) -> "Recorder":
        if _ACTIVE.recorder is not None:
            raise RuntimeError("a trace recorder is already active on this thread")
        _install_from_op_tag()
        _ACTIVE.recorder = self
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.recorder = None
        _remove_from_op_tag()

    def saw_from_op(self, tensor: Tensor) -> bool:
        """Whether ``tensor`` was produced by an op while recording was live.

        The plan builder uses this to distinguish genuine constants
        (weights, cached grids — safe to freeze into a plan) from
        intermediates whose producing op escaped the trace (unsafe).
        """
        with _LOCK:
            return id(tensor) in _FROM_OP_IDS


def recording_active() -> bool:
    """Whether the current thread is inside a :class:`Recorder` context."""
    return _ACTIVE.recorder is not None


def _calling_module(frame) -> Any:
    """The ``self`` of the innermost ``forward`` frame that is a module
    (has ``_modules``), walking out from ``frame``; None when there is none."""
    while frame is not None:
        if frame.f_code.co_name == "forward":
            owner = frame.f_locals.get("self")
            if hasattr(owner, "_modules"):
                return owner
        frame = frame.f_back
    return None


def traced(name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Wrap op ``fn`` so an active recorder captures each call.

    The wrapper is transparent — same signature, same return value — and
    records ``(name, args, kwargs, out)`` only when this thread holds an
    active recorder.  Ops that call other wrapped ops internally simply
    produce nested records; composite ops whose output *is* an internal
    op's output (e.g. ``ops.var``) must not be wrapped, or the same
    tensor would be recorded twice.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder = _ACTIVE.recorder
        out = fn(*args, **kwargs)
        if recorder is not None and isinstance(out, Tensor):
            recorder.records.append(
                TraceRecord(name, args, dict(kwargs), out, _calling_module(sys._getframe(1))))
        return out

    wrapper.__wrapped_op__ = name  # type: ignore[attr-defined]
    return wrapper


# ---------------------------------------------------------------------------
# the op table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Primitive:
    """One traced op: its array forward, its VJP and what a plan needs to lower it.

    ``forward`` takes the op's arguments in the public op's order, with
    arrays in place of tensors.  It writes into ``out=`` when given a
    buffer and allocates when not; the eager op calls it without a buffer,
    a compiled plan with its arena buffer.  ``out`` says what a plan step
    produces: ``"arena"`` (writes ``out=``), ``"view"`` (a view of its
    first operand), ``"fresh"`` (a new array per call) or ``"spectral"``
    (a fresh FFT-backed array).  ``flops`` is the estimate per output
    element, or ``flops(out, *args)`` for the whole step.  The first
    ``arity`` arguments are array operands, the rest are static; with
    ``weak`` the last two operands follow the weak-scalar rule
    (:func:`repro.tensor.ops.weak_pair`).

    ``vjp`` is the op's vector-Jacobian product, called by the eager
    backward closure and by compiled training plans alike:
    ``vjp(g, *args, res=, needs=, out=)`` returns one cotangent per
    operand tensor (list operands count element by element), None where
    ``needs`` is false.  ``res`` holds the residuals the forward kept.
    With ``vjp_out="arena"`` each cotangent is written into its ``out``
    buffer when one is given; with ``"view"`` the VJP reads only its
    operands' shapes, its cotangents are views of ``g`` (or fresh when
    broadcasting is undone) and ``out`` is ignored.  ``spectral_conv``,
    which has a dedicated plan builder, takes its transforms and
    residuals explicitly (:func:`repro.tensor.fft_ops.spectral_vjp`).
    Ops without a ``vjp`` train eagerly only.
    """

    name: str
    forward: Callable[..., Any]
    out: str
    flops: int | Callable[..., int]
    arity: int
    weak: bool
    signature: inspect.Signature
    vjp: Callable[..., tuple] | None = None
    vjp_out: str = "arena"

    def bind(self, args: tuple, kwargs: dict) -> list:
        """A recorded call's arguments in signature order, defaults filled."""
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return list(bound.arguments.values())


PRIMITIVES: dict[str, Primitive] = {}


def primitive(forward, *, out: str = "arena", flops=0, arity: int = 1, weak: bool = False,
              vjp=None, vjp_out: str = "arena"):
    """Register the decorated public op in :data:`PRIMITIVES` and trace it.

    The op is registered under its function name; the returned function
    is the :func:`traced` wrapper, so registering an op is also what makes
    a recorder capture it.
    """

    def register(fn):
        PRIMITIVES[fn.__name__] = Primitive(
            fn.__name__, forward, out, flops, arity, weak, inspect.signature(fn), vjp, vjp_out
        )
        return traced(fn.__name__, fn)

    return register
