"""Execution plans: from a recorded op schedule to a frozen runnable.

A :class:`CompiledPlan` is the compiled artifact for one
``(model, batch_shape, dtype)``: an ordered list of step closures, a
buffer :class:`~repro.compile.arena.Arena`, and a slot table mapping every
traced intermediate to either a preallocated buffer (written with
``out=``-style kernels) or a transient value produced fresh each call
(FFT outputs, views).  The training plan
(:class:`repro.compile.train.TrainPlan`) is a subclass whose schedule
continues with reverse steps; both share :class:`PlanBuilder` and the
liveness-based buffer assignment (:func:`assign_buffers`).  While
:data:`repro.obs.hooks.PROFILING` is set, every step's wall time is
added to ``step_seconds`` (:func:`run_steps`).

Guarantees:

* **Bitwise equivalence.**  Every step calls the eager op's own forward
  (and, in a training plan, its VJP) from the primitive table
  (:data:`repro.tensor.recording.PRIMITIVES`), with the same weak-scalar
  rule, so ``plan.execute(x)`` is bit-for-bit equal to the no-grad eager
  forward (property-tested per op in ``tests/test_compile.py``) and a
  compiled training step equals the eager one
  (``tests/test_compile_train.py``).
* **No aliasing of user-visible outputs.**  When the final value lives in
  the arena (or is a view of it), :meth:`CompiledPlan.execute` returns a
  copy; arena storage is never handed to callers.
* **Weight coherence.**  Parameters are captured as *objects*, not
  arrays: kernels read ``param.data`` at call time, so
  ``load_state_dict`` (which replaces the data array) takes effect on the
  next execution without retracing.

Ops the compiler refuses (``einsum``, used by DeepONet) raise
:class:`UnsupportedOpError` at build time; the runtime records the
failure and serves those models eagerly forever after.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..nn.module import Parameter
from ..obs import hooks as _hooks
from ..tensor.recording import Recorder
from ..tensor.tensor import Tensor, asarray
from .arena import Arena

__all__ = [
    "UnsupportedOpError",
    "PlanMismatchError",
    "Step",
    "PlanBuilder",
    "CompiledPlan",
    "build_plan",
]


class UnsupportedOpError(RuntimeError):
    """The traced schedule contains an op the compiler cannot execute."""


class PlanMismatchError(RuntimeError):
    """Input shape/dtype does not match what the plan was traced for."""


@dataclass
class Step:
    """One executable step of a plan (metadata + run closure)."""

    op: str
    run: Callable[[list], None]
    out_slot: int
    out_shape: tuple[int, ...]
    out_dtype: np.dtype
    flops: int = 0
    # True when the step writes a fresh per-call allocation (safe to hand
    # to the caller); False for arena-backed outputs and views.
    fresh: bool = False
    kind: str = "transient"
    alloc_bytes: int = 0
    # Dotted path of the module whose forward issued the op ("" = root).
    module: str = ""


@dataclass
class _ArenaRequest:
    slot: int
    shape: tuple[int, ...]
    dtype: np.dtype
    init: Callable[[np.ndarray], None] | None
    reusable: bool


class PlanBuilder:
    """Mutable state threaded through op lowering.

    Lowering uses three services: :meth:`getter` (resolve an op
    argument to a ``values``-list accessor, registering the read for
    liveness), :meth:`request_arena` (claim a preallocated buffer for a
    slot), and :meth:`scratch_slot` (a hidden arena slot not tied to any
    traced tensor, e.g. the zero-initialised spectral mode buffer).
    """

    def __init__(self, recorder: Recorder, input_tensor: Tensor):
        self.recorder = recorder
        self.input_slot = 0
        self.n_slots = 1
        self._slot_of: dict[int, int] = {id(input_tensor): 0}
        self.steps: list[Step] = []
        self.step_reads: list[set[int]] = []
        self.step_requests: list[list[_ArenaRequest]] = []
        self._alias_root: dict[int, int] = {}
        self._shared: dict[tuple, int] = {}
        self._current_reads: set[int] = set()
        self._current_requests: list[_ArenaRequest] = []

    # -- slots ---------------------------------------------------------
    def new_slot(self, tensor: Tensor | None = None) -> int:
        slot = self.n_slots
        self.n_slots += 1
        if tensor is not None:
            self._slot_of[id(tensor)] = slot
        return slot

    def slot_for(self, tensor: Tensor) -> int | None:
        return self._slot_of.get(id(tensor))

    def root(self, slot: int) -> int:
        return self._alias_root.get(slot, slot)

    def mark_view(self, out_slot: int, src_slot: int) -> None:
        """Record that ``out_slot`` aliases ``src_slot``'s storage."""
        self._alias_root[out_slot] = self.root(src_slot)

    def read(self, slot: int) -> Callable[[list], np.ndarray]:
        """An accessor for ``slot``, registered as a read of this step."""
        self._current_reads.add(self.root(slot))
        return _slot_getter(slot)

    # -- argument resolution -------------------------------------------
    def getter(self, value: Any) -> Callable[[list], np.ndarray]:
        """Resolve an op argument to an accessor over the values list.

        Traced intermediates become slot reads; parameters are read
        through the live object (``.data`` at call time); anything else
        is frozen as a constant — unless it was produced by an op that
        escaped the trace, which would freeze one call's value into every
        execution and is therefore rejected.
        """
        if isinstance(value, Tensor):
            slot = self._slot_of.get(id(value))
            if slot is not None:
                self._current_reads.add(self.root(slot))
                return _slot_getter(slot)
            if isinstance(value, Parameter):
                return _param_getter(value)
            if self.recorder.saw_from_op(value):
                raise UnsupportedOpError(
                    "trace argument was produced outside the recorded op set "
                    "(e.g. Tensor.astype); cannot freeze it as a plan constant"
                )
            return _const_getter(value.data)
        return _const_getter(asarray(value))

    # -- arena ---------------------------------------------------------
    def request_arena(self, slot, shape, dtype, init=None, reusable: bool = True) -> None:
        self._current_requests.append(
            _ArenaRequest(slot, tuple(shape), np.dtype(dtype), init, reusable)
        )

    def scratch_slot(self, shape, dtype, init=None, reusable: bool = False) -> int:
        slot = self.new_slot()
        self.request_arena(slot, shape, dtype, init=init, reusable=reusable)
        return slot

    def shared_scratch(self, purpose: str, shape, dtype, init=None) -> int:
        """One pinned scratch slot per ``(purpose, shape, dtype)``, shared
        by every step asking for it: for buffers whose per-call region
        is rewritten before each read and whose rest is invariant (zero
        padding, zero-outside-the-blocks mode buffers, FFT scratch)."""
        key = (purpose, tuple(shape), np.dtype(dtype).str)
        slot = self._shared.get(key)
        if slot is None:
            slot = self._shared[key] = self.scratch_slot(shape, dtype, init=init)
        return slot

    # -- step assembly (called by build_plan) --------------------------
    def begin_step(self) -> None:
        self._current_reads = set()
        self._current_requests = []

    def end_step(self, step: Step) -> None:
        self.steps.append(step)
        self.step_reads.append(self._current_reads)
        self.step_requests.append(self._current_requests)


def _slot_getter(slot: int) -> Callable[[list], np.ndarray]:
    def get(values: list) -> np.ndarray:
        return values[slot]

    return get


def _param_getter(param: Parameter) -> Callable[[list], np.ndarray]:
    def get(values: list) -> np.ndarray:
        return param.data

    return get


def _const_getter(arr: np.ndarray) -> Callable[[list], np.ndarray]:
    def get(values: list) -> np.ndarray:
        return arr

    return get


def build_plan(
    recorder: Recorder,
    input_tensor: Tensor,
    output_tensor: Tensor,
    model_name: str = "model",
    module_paths: dict[int, str] | None = None,
) -> "CompiledPlan":
    """Lower a recorded schedule into a :class:`CompiledPlan`.

    ``module_paths`` maps ``id(module)`` to its dotted path, naming the
    module each step came from (for per-module profiles)."""
    from .kernels import lower  # late import: kernels imports this module

    if not recorder.records:
        raise UnsupportedOpError("trace recorded no ops (nothing to compile)")

    builder = PlanBuilder(recorder, input_tensor)
    for rec in recorder.records:
        out_slot = builder.new_slot(rec.out)
        builder.begin_step()
        step = lower(builder, rec, out_slot)
        step.module = (module_paths or {}).get(id(rec.module), "")
        builder.end_step(step)

    output_slot = builder.slot_for(output_tensor)
    if output_slot is None:
        raise UnsupportedOpError("model output was not produced by a traced op")

    # The final output must survive the whole schedule.
    arena, buffer_of = assign_buffers(builder, {builder.root(output_slot): len(builder.steps)})

    output_step = next(s for s in builder.steps if s.out_slot == output_slot)
    return CompiledPlan(
        model_name=model_name,
        input_shape=tuple(input_tensor.data.shape),
        input_dtype=np.dtype(input_tensor.data.dtype),
        steps=builder.steps,
        arena=arena,
        buffer_of=buffer_of,
        n_slots=builder.n_slots,
        input_slot=builder.input_slot,
        output_slot=output_slot,
        output_fresh=output_step.fresh,
    )


def assign_buffers(builder: PlanBuilder, keep: dict[int, int]) -> tuple[Arena, dict[int, int]]:
    """Give every requested slot an arena buffer, reusing freed ones.

    A buffer is freed after the last step that reads its slot (or the
    step ``keep[slot]``, when later); a step's own requests are assigned
    before anything is freed, so its outputs never alias its inputs.
    Pinned buffers (``init`` or not ``reusable``) are never shared.
    """
    last_read: dict[int, int] = {}
    for i, reads in enumerate(builder.step_reads):
        for slot in reads:
            last_read[slot] = i
    for slot, i in keep.items():
        last_read[slot] = max(i, last_read.get(slot, i))

    arena = Arena()
    buffer_of: dict[int, int] = {}
    free: dict[tuple, list[int]] = {}

    def _key(shape, dtype) -> tuple:
        return (tuple(shape), np.dtype(dtype).str)

    for i, step in enumerate(builder.steps):
        for req in builder.step_requests[i]:
            key = _key(req.shape, req.dtype)
            bid: int | None = None
            if req.reusable and req.init is None:
                pool = free.get(key)
                if pool:
                    bid = pool.pop()
                    arena.reuse_count += 1
            if bid is None:
                bid = arena.add(req.shape, req.dtype, req.init, req.reusable)
                step.alloc_bytes += arena.specs[bid].nbytes
            buffer_of[req.slot] = bid
        for slot in builder.step_reads[i]:
            if last_read.get(slot) != i:
                continue
            bid = buffer_of.get(slot)
            if bid is None:
                continue
            spec = arena.specs[bid]
            if spec.reusable and spec.init is None:
                free.setdefault(_key(spec.shape, spec.dtype), []).append(bid)
    return arena, buffer_of


# Serve workers share a plan, so its step_seconds are merged under a lock.
_TIMING_LOCK = threading.Lock()


def run_steps(runs: list, values: list, step_seconds: list[float], first: int = 0) -> None:
    """Run step closures in order; time each one while profiling is on.

    With :data:`repro.obs.hooks.PROFILING` off this costs one flag read
    per call; on, each step's wall time is added to
    ``step_seconds[first + i]``.
    """
    if not _hooks.PROFILING:
        for run in runs:
            run(values)
        return
    clock = time.perf_counter
    seconds = []
    for run in runs:
        start = clock()
        run(values)
        seconds.append(clock() - start)
    with _TIMING_LOCK:
        for i, elapsed in enumerate(seconds, start=first):
            step_seconds[i] += elapsed


class CompiledPlan:
    """A frozen, repeatedly executable forward pass.

    Thread-safe: buffer sets are materialised per executing thread (serve
    workers share one plan), while step closures, parameters, and
    constants are shared read-only.
    """

    def __init__(
        self,
        model_name: str,
        input_shape: tuple[int, ...],
        input_dtype: np.dtype,
        steps: list[Step],
        arena: Arena,
        buffer_of: dict[int, int],
        n_slots: int,
        input_slot: int,
        output_slot: int,
        output_fresh: bool,
    ):
        self.model_name = model_name
        self.input_shape = input_shape
        self.input_dtype = input_dtype
        self.steps = steps
        self.arena = arena
        self.buffer_of = buffer_of
        self.n_slots = n_slots
        self.input_slot = input_slot
        self.output_slot = output_slot
        self.output_fresh = output_fresh
        self.executions = 0
        self._count_lock = threading.Lock()
        self._runs = [step.run for step in steps]
        self._tls = threading.local()
        # Per-step wall time, accumulated only while profiling is on.
        self.step_seconds = [0.0] * len(steps)

    # ------------------------------------------------------------------
    def _template(self) -> list:
        template = getattr(self._tls, "template", None)
        if template is None:
            buffers = self.arena.materialize()
            template = [None] * self.n_slots
            for slot, bid in self.buffer_of.items():
                template[slot] = buffers[bid]
            self._tls.template = template
        return template

    def execute(self, x: np.ndarray) -> np.ndarray:
        """Run the plan on ``x``; returns an array the caller owns."""
        if x.shape != self.input_shape or x.dtype != self.input_dtype:
            raise PlanMismatchError(
                f"plan traced for {self.input_shape}/{self.input_dtype}, "
                f"got {x.shape}/{x.dtype}"
            )
        values = self._template().copy()
        values[self.input_slot] = x
        run_steps(self._runs, values, self.step_seconds)
        # Plans are shared across serve workers through the process-wide
        # cache; unlocked increments would lose counts.
        with self._count_lock:
            self.executions += 1
        out = values[self.output_slot]
        if self.output_fresh:
            return out
        # Arena-backed (or view) result: the caller must never hold arena
        # storage, or the next execute() would overwrite their output.
        result = np.empty_like(out)
        np.copyto(result, out)
        return result

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self.arena.nbytes

    @property
    def flops(self) -> int:
        return sum(step.flops for step in self.steps)

    def describe(self) -> dict:
        """Plan summary for the ``repro compile`` CLI and stats endpoints."""
        return {
            "model": self.model_name,
            "input_shape": list(self.input_shape),
            "input_dtype": str(self.input_dtype),
            "n_steps": len(self.steps),
            "arena_bytes": self.arena.nbytes,
            "n_buffers": len(self.arena),
            "buffers_reused": self.arena.reuse_count,
            "est_flops": self.flops,
            "steps": [
                {
                    "op": step.op,
                    "module": step.module,
                    "out_shape": list(step.out_shape),
                    "out_dtype": str(step.out_dtype),
                    "kind": step.kind,
                    "arena_bytes": step.alloc_bytes,
                    "est_flops": step.flops,
                }
                for step in self.steps
            ],
        }
