"""Op-level trace recording and the op table for the compiler.

:mod:`repro.compile` builds frozen execution plans by running a model's
``forward`` once under a recording context and capturing the linear
sequence of tensor primitives it executes.  This module owns the hook
and the op table: every differentiable primitive in
:mod:`repro.tensor.ops` and every fused spectral op in
:mod:`repro.tensor.fft_ops` is registered with :func:`primitive` at
module-definition time, which records its shared forward and its VJP
in :data:`PRIMITIVES` and wraps it with :func:`traced`, so the wrapped
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
  a recorder is active, a :meth:`Tensor.from_op` observer notes every
  tensor an op produces on its thread; the plan builder refuses to treat
  such a tensor as a constant when no traced op produced it, and the
  model runs eagerly instead.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from .tensor import Tensor, add_observer, remove_observer

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


def _tag(out: Tensor, parents) -> None:
    recorder = _ACTIVE.recorder
    if recorder is not None:
        recorder.produced.add(id(out))


@dataclass
class Recorder:
    """Collects :class:`TraceRecord` entries for one forward pass.

    Use as a context manager; at most one recorder per thread may be
    active at a time (nested tracing is a programming error).
    """

    records: list[TraceRecord] = field(default_factory=list)
    # Identities of every tensor an op produced on this thread while the
    # recorder was active, traced or not.
    produced: set[int] = field(default_factory=set)

    def __enter__(self) -> "Recorder":
        if _ACTIVE.recorder is not None:
            raise RuntimeError("a trace recorder is already active on this thread")
        add_observer(_tag)
        _ACTIVE.recorder = self
        return self

    def __exit__(self, *exc) -> None:
        _ACTIVE.recorder = None
        remove_observer(_tag)

    def saw_from_op(self, tensor: Tensor) -> bool:
        """Whether an op produced ``tensor`` while this recorder was active.

        The plan builder uses this to distinguish genuine constants
        (weights, cached grids — safe to freeze into a plan) from
        intermediates whose producing op escaped the trace (unsafe).
        """
        return id(tensor) in self.produced


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

    ``vjp`` is the op's vector-Jacobian product, the one gradient of the
    op: eager backward (:meth:`Tensor.backward`) and compiled training
    plans both call it.  ``vjp(g, *args, res=, needs=, out=)`` takes the
    op's arguments in signature order (arrays in place of tensors) and
    returns one cotangent per operand (list operands count element by
    element), None where ``needs`` is false.  ``res`` holds the residuals
    the forward kept.  ``vjp_out`` says what the cotangents are:
    ``"arena"`` — each is written into its ``out`` buffer when one is
    given; ``"fresh"`` — new arrays, ``out`` is ignored; ``"view"`` — the
    VJP reads only its operands' shapes, and its cotangents may be views
    of ``g``, so a plan hands it shape stand-ins and never adds into what
    it returns.  ``spectral_conv``'s plan lowering calls the shared
    :func:`repro.tensor.fft_ops.spectral_vjp` with its own transforms and
    buffers.
    """

    name: str
    forward: Callable[..., Any]
    out: str
    flops: int | Callable[..., int]
    arity: int
    weak: bool
    signature: inspect.Signature
    vjp: Callable[..., tuple]
    vjp_out: str = "fresh"

    def bind(self, args: tuple, kwargs: dict) -> list:
        """A recorded call's arguments in signature order, defaults filled."""
        bound = self.signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return list(bound.arguments.values())


PRIMITIVES: dict[str, Primitive] = {}


def primitive(forward, *, vjp, out: str = "arena", flops=0, arity: int = 1, weak: bool = False,
              vjp_out: str = "fresh"):
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
