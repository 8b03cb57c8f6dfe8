"""Compiled training steps: one arena-backed forward + backward plan.

A :class:`TrainPlan` is the training counterpart of
:class:`~repro.compile.plan.CompiledPlan`, built per
``(model, batch_shape, dtype)`` from one eager training forward, run
with autograd under a :class:`~repro.tensor.recording.Recorder`.
:func:`build_train_plan` lowers the records into forward steps that also
keep each VJP's residuals (GELU's CDF, the outputs ``exp``/``sqrt``/
``tanh``/``sigmoid`` differentiate through, the layer spectrum and
complex weights) in arena slots, then appends one reverse step per op
in the output's graph, in the reverse of
:func:`~repro.tensor.tensor.topological_order` — the order in which
:meth:`Tensor.backward` runs the same VJPs.  Each reverse step calls the
op's VJP from the primitive table with arena buffers as ``out=`` and
hands every cotangent on in operand order, so each cotangent sum adds
the same terms in the same order as eager.  Liveness runs over the whole
forward + reverse schedule, so residuals stay live until their VJP has
run and freed buffers are reused by later steps of either direction.

Cotangents of intermediates live in the arena: the first contribution
becomes the cotangent (the VJP's own output, or a view of the incoming
cotangent when it is the only one), later ones are added in place.
Parameter gradients go through ``Parameter._accumulate``, which copies
on first store, so ``p.grad`` is never arena storage.

:meth:`TrainPlan.forward` returns a Tensor whose backward runs the
reverse steps; the loss stays eager.  Every op in the table has a VJP;
``einsum`` and gradients that cross a dtype or an untraced op raise
:class:`UnsupportedOpError`, and the model trains eagerly.
"""

from __future__ import annotations

import numpy as np

from ..nn.module import Parameter
from ..tensor import fft_ops, ops
from ..tensor.recording import PRIMITIVES, Primitive, Recorder, TraceRecord
from ..tensor.tensor import Tensor, topological_order
from .kernels import SpectralLayer, _operand_getter, _out_meta, lower
from .plan import (
    CompiledPlan,
    PlanBuilder,
    PlanMismatchError,
    Step,
    UnsupportedOpError,
    assign_buffers,
    run_steps,
)

__all__ = ["TrainPlan", "build_train_plan"]


# ---------------------------------------------------------------------------
# forward lowering: ops whose VJP reads residuals the inference forward drops
# ---------------------------------------------------------------------------

def _forward_gelu(b: PlanBuilder, rec: TraceRecord, spec: Primitive, out_slot: int):
    shape, dtype = _out_meta(rec)
    getx = b.getter(spec.bind(rec.args, rec.kwargs)[0])
    cdf_slot = b.new_slot()
    b.request_arena(out_slot, shape, dtype)
    b.request_arena(cdf_slot, shape, dtype)
    keep = ops.gelu_keep_cdf

    def run(values: list) -> None:
        values[out_slot], values[cdf_slot] = keep(getx(values), values[out_slot], values[cdf_slot])

    flops = spec.flops * int(np.prod(shape, dtype=np.int64))
    return Step(rec.op, run, out_slot, shape, dtype, flops=flops, kind="arena"), (cdf_slot,)


def _forward_spectral(b: PlanBuilder, rec: TraceRecord, spec: Primitive, out_slot: int):
    shape, dtype = _out_meta(rec)
    layer = SpectralLayer(b, rec, spec)
    getx, getwr, getwi = b.getter(layer.x), b.getter(layer.wr), b.getter(layer.wi)
    reads = [b.read(slot) for slot in (layer.y_slot, layer.pad_out, layer.r2c_in)]
    X_slot, W_slot = b.new_slot(), b.new_slot()
    b.request_arena(out_slot, shape, dtype)
    b.request_arena(X_slot, layer.compact_in, layer.ctype)
    forward, weights, fwd, inv = spec.forward, fft_ops.complex_weights, layer.fwd, layer.inv
    b.request_arena(W_slot, weights(layer.wr.data, layer.wi.data).shape, layer.ctype)
    idx = layer.idx

    def run(values: list) -> None:
        Y, pad, half = (get(values) for get in reads)
        X_buf, y_buf = values[X_slot], values[out_slot]
        W = weights(getwr(values), getwi(values), out=values[W_slot])
        values[out_slot], values[X_slot] = forward(
            getx(values), W, idx,
            lambda a: fwd(a, half, X_buf), lambda A: inv(A, pad, y_buf), Y,
        )
        values[W_slot] = W

    step = Step(rec.op, run, out_slot, shape, dtype, flops=layer.flops, kind="arena")
    return step, (X_slot, W_slot, layer)


def _forward_keep_output(b: PlanBuilder, rec: TraceRecord, spec: Primitive, out_slot: int):
    """Ops whose VJP reads their own output keep the output slot as residual."""
    return lower(b, rec, out_slot), (out_slot,)


_FORWARD = {
    "gelu": _forward_gelu,
    "spectral_conv": _forward_spectral,
    **dict.fromkeys(("exp", "sqrt", "tanh", "sigmoid"), _forward_keep_output),
}


# ---------------------------------------------------------------------------
# reverse lowering
# ---------------------------------------------------------------------------

def _flat(operands: list) -> list:
    """Operand tensors element by element (list operands expanded)."""
    flat = []
    for value in operands:
        flat.extend(value if isinstance(value, (list, tuple)) else [value])
    return flat


def _stand_in(value):
    """A zero-stride array with ``value``'s shape and dtype (lists element-wise)."""
    if isinstance(value, (list, tuple)):
        return [_stand_in(v) for v in value]
    arr = value.data if isinstance(value, Tensor) else np.asarray(value)
    return np.broadcast_to(np.zeros((), arr.dtype), arr.shape)


def _needs(value) -> bool:
    return isinstance(value, Tensor) and value.requires_grad


class _Cotangents:
    """Where each intermediate's cotangent lives, and how contributions land.

    ``total`` counts the contributions each tensor receives over the
    whole backward (known from the logged order), so a lone contribution
    can be aliased instead of copied.
    """

    def __init__(self, b: PlanBuilder, total: dict[int, int]):
        self.b = b
        self.total = total
        self.slot: dict[int, int] = {}
        self.seen: dict[int, int] = {}

    def put(self, t: Tensor, owned_slot: int | None, g_slot: int):
        """The run-time delivery of one contribution ``c`` to ``t``.

        ``owned_slot`` is the arena slot the VJP wrote ``c`` into, or
        None when ``c`` is a view of the incoming cotangent ``g_slot``
        (or a fresh reduction of it).
        """
        if isinstance(t, Parameter):
            return lambda values, c: t._accumulate(c)
        b, key = self.b, id(t)
        first = self.seen.get(key, 0) == 0
        self.seen[key] = self.seen.get(key, 0) + 1
        if not first:
            slot = self.slot[key]
            b.read(slot)
            if owned_slot is not None:
                # Added in place and never read again: free it after this step.
                b.read(owned_slot)

            def add(values: list, c: np.ndarray) -> None:
                np.add(values[slot], c, out=values[slot])

            return add
        if owned_slot is not None:
            slot = self.slot[key] = owned_slot
        elif self.total[key] == 1:
            slot = self.slot[key] = b.new_slot()
            b.mark_view(slot, g_slot)
        else:
            slot = self.slot[key] = b.new_slot()
            b.request_arena(slot, t.data.shape, t.data.dtype)

            def copy(values: list, c: np.ndarray) -> None:
                np.copyto(values[slot], c)

            return copy

        def store(values: list, c: np.ndarray) -> None:
            values[slot] = c

        return store


def _reverse_generic(b: PlanBuilder, rec: TraceRecord, spec: Primitive, g_slot: int,
                     res: tuple, cts: _Cotangents, fwd_flops: int) -> Step:
    params = spec.bind(rec.args, rec.kwargs)
    operands, statics = params[:spec.arity], tuple(params[spec.arity:])
    if spec.weak:
        operands[-2:] = ops.weak_pair(*operands[-2:])
    flat = _flat(operands)
    needs = tuple(_needs(t) for t in flat)
    if spec.vjp_out == "view":
        # A view VJP reads only its operands' shapes: hand it zero-stride
        # stand-ins so the operands' buffers are not kept alive for it.
        stand_ins = [_stand_in(value) for value in operands]
        gets = [lambda values, s=s: s for s in stand_ins]
        outs = [None] * len(flat)
    else:
        # Cotangents the VJP writes ("arena") or allocates ("fresh") are
        # its own: later contributions are added into them in place.
        gets = [_operand_getter(b, value) for value in operands]
        outs = []
        for t, need in zip(flat, needs):
            slot = None
            if need and not isinstance(t, Parameter):
                slot = b.new_slot()
                if spec.vjp_out == "arena":
                    b.request_arena(slot, t.data.shape, t.data.dtype)
            outs.append(slot)
    gget = b.read(g_slot)
    rgets = [b.read(slot) for slot in res]
    puts = [cts.put(t, slot, g_slot) if need else None
            for t, need, slot in zip(flat, needs, outs)]
    vjp = spec.vjp

    def run(values: list) -> None:
        grads = vjp(gget(values), *[get(values) for get in gets], *statics,
                    res=tuple(get(values) for get in rgets), needs=needs,
                    out=tuple(None if s is None else values[s] for s in outs))
        for put, c in zip(puts, grads):
            if put is not None:
                put(values, c)

    # Each array cotangent costs about one forward (the bias's is a sum).
    flops = 0 if spec.vjp_out == "view" else fwd_flops * sum(needs[:2])
    shape, dtype = _out_meta(rec)
    return Step(f"{rec.op}.vjp", run, g_slot, shape, dtype, flops=flops, kind="reverse")


def _reverse_spectral(b: PlanBuilder, rec: TraceRecord, spec: Primitive, g_slot: int,
                      res: tuple, cts: _Cotangents, fwd_flops: int) -> Step:
    X_slot, W_slot, layer = res
    x, wr, wi = layer.x, layer.wr, layer.wi
    needs = (_needs(x), _needs(wr) or _needs(wi))
    zero = lambda buf: buf.fill(0.0)  # noqa: E731
    gets = [b.read(slot) for slot in (g_slot, X_slot, W_slot)]
    half_g = b.read(b.shared_scratch("r2c", layer.half_out, layer.ctype))
    GX = b.read(b.shared_scratch("modes", layer.compact_in, layer.ctype, init=zero))
    pad = b.read(b.shared_scratch("pad", layer.half_in, layer.ctype, init=zero))
    GY_slot, gW_slot = b.new_slot(), b.new_slot()
    b.request_arena(GY_slot, layer.compact_out, layer.ctype)
    b.request_arena(gW_slot, wr.data.shape, layer.ctype)
    # Step-local: read here only, so both are freed right after this step.
    b.read(GY_slot)
    b.read(gW_slot)
    dx_slot = None
    if needs[0]:
        dx_slot = b.new_slot()
        b.request_arena(dx_slot, x.data.shape, x.data.dtype)
    put_x = cts.put(x, dx_slot, g_slot) if needs[0] else None
    put_wr = cts.put(wr, None, g_slot) if _needs(wr) else None
    put_wi = cts.put(wi, None, g_slot) if _needs(wi) else None
    vjp, fwd, inv = fft_ops.spectral_vjp, layer.fwd, layer.inv
    idx, w_last = layer.idx, layer.w_last

    def run(values: list) -> None:
        g, X, W = (get(values) for get in gets)
        half, pad_x = half_g(values), pad(values)
        GY_buf = values[GY_slot]
        dx_buf = None if dx_slot is None else values[dx_slot]
        dx, gW = vjp(g, X, W, idx, lambda a: fwd(a, half, GY_buf),
                     lambda A: inv(A, pad_x, dx_buf), w_last, needs, GX(values),
                     values[gW_slot])
        if put_x is not None:
            put_x(values, dx)
        if put_wr is not None:
            put_wr(values, gW.real)
        if put_wi is not None:
            put_wi(values, gW.imag)

    shape, dtype = _out_meta(rec)
    # Two transforms and two mode contractions: about one forward.
    return Step(f"{rec.op}.vjp", run, g_slot, shape, dtype, flops=fwd_flops, kind="reverse")


_REVERSE = {"spectral_conv": _reverse_spectral}


# ---------------------------------------------------------------------------
# plan assembly
# ---------------------------------------------------------------------------

def _check_supported(records: list, out: Tensor, builder: PlanBuilder) -> None:
    dtype = out.data.dtype
    for rec in records:
        spec = PRIMITIVES[rec.op]
        if not rec.out.requires_grad:
            continue
        for t in _flat(spec.bind(rec.args, rec.kwargs)[:spec.arity]):
            if not _needs(t):
                continue
            if t.data.dtype != dtype:
                raise UnsupportedOpError("mixed-dtype gradients are not compiled")
            if t is out:
                raise UnsupportedOpError("the model output feeds another traced op")
            if not isinstance(t, Parameter) and builder.slot_for(t) in (None, builder.input_slot):
                raise UnsupportedOpError(
                    "a gradient flows into a tensor no traced op produced "
                    "(the input, or an untraced op such as Tensor.astype)"
                )


def build_train_plan(recorder: Recorder, inp: Tensor, out: Tensor, model_name: str = "model",
                     module_paths: dict[int, str] | None = None) -> "TrainPlan":
    """Lower a recorded training forward of ``inp`` into a :class:`TrainPlan`.

    ``out`` is the forward's output, still carrying its graph: the
    reverse steps follow ``topological_order(out)``.
    """
    records = recorder.records
    if not records or not out.requires_grad:
        raise UnsupportedOpError("training trace has no gradient to compute")
    module_paths = module_paths or {}
    b = PlanBuilder(recorder, inp)
    residuals: dict[int, tuple] = {}
    for k, rec in enumerate(records):
        out_slot = b.new_slot(rec.out)
        if rec.op not in PRIMITIVES:
            raise UnsupportedOpError(f"op {rec.op!r} has no compiled kernel")
        b.begin_step()
        special = _FORWARD.get(rec.op) if rec.out.requires_grad else None
        if special is not None:
            step, residuals[k] = special(b, rec, PRIMITIVES[rec.op], out_slot)
        else:
            step = lower(b, rec, out_slot)
        step.module = module_paths.get(id(rec.module), "")
        b.end_step(step)
    output_slot = b.slot_for(out)
    if output_slot is None:
        raise UnsupportedOpError("model output was not produced by a traced op")
    _check_supported(records, out, b)
    n_forward = len(b.steps)

    index = {id(rec.out): k for k, rec in enumerate(records)}
    order = [index[id(t)] for t in reversed(topological_order(out)) if id(t) in index]
    # Contributions per tensor over the whole backward, for aliasing.
    total: dict[int, int] = {}
    for k in order:
        rec = records[k]
        spec = PRIMITIVES[rec.op]
        for t in _flat(spec.bind(rec.args, rec.kwargs)[:spec.arity]):
            if _needs(t):
                total[id(t)] = total.get(id(t), 0) + 1
    cts = _Cotangents(b, total)
    seed_slot = b.new_slot()
    cts.slot[id(out)] = seed_slot
    cts.seen[id(out)] = 1
    params: dict[int, Parameter] = {}
    for k in order:
        rec = records[k]
        spec = PRIMITIVES[rec.op]
        for t in _flat(spec.bind(rec.args, rec.kwargs)[:spec.arity]):
            if isinstance(t, Parameter) and t.requires_grad:
                params.setdefault(id(t), t)
        b.begin_step()
        step = _REVERSE.get(rec.op, _reverse_generic)(
            b, rec, spec, cts.slot[id(rec.out)], residuals.get(k, ()), cts, b.steps[k].flops)
        step.module = module_paths.get(id(rec.module), "")
        b.end_step(step)

    # The forward output is copied out right after the last forward step.
    arena, buffer_of = assign_buffers(b, {b.root(output_slot): n_forward - 1})
    return TrainPlan(
        model_name=model_name,
        input_shape=tuple(inp.data.shape),
        input_dtype=np.dtype(inp.data.dtype),
        steps=b.steps,
        arena=arena,
        buffer_of=buffer_of,
        n_slots=b.n_slots,
        input_slot=b.input_slot,
        output_slot=output_slot,
        output_fresh=False,
        n_forward=n_forward,
        seed_slot=seed_slot,
        params=tuple(params.values()),
    )


class TrainPlan(CompiledPlan):
    """A compiled training step: forward steps, then reverse steps.

    :meth:`forward` runs the forward steps on this thread's arena and
    returns the output as a Tensor whose backward runs the reverse
    steps on the same buffers.  A later forward on the same thread
    overwrites those buffers; a backward that finds its forward stale
    re-runs it first, so gradients stay correct, only slower.
    """

    def __init__(self, *, n_forward: int, seed_slot: int, params: tuple, **kwargs):
        super().__init__(**kwargs)
        self.n_forward = n_forward
        self.seed_slot = seed_slot
        self.params = params
        self._forward_runs = self._runs[:n_forward]
        self._reverse_runs = self._runs[n_forward:]

    def _run_forward(self, x: np.ndarray) -> tuple[list, list, int]:
        """Forward on this thread's arena: ``(values, counter, generation)``,
        where ``counter[0]`` moves on at every forward on this thread."""
        values = self._template().copy()
        values[self.input_slot] = x
        run_steps(self._forward_runs, values, self.step_seconds)
        counter = self._tls.__dict__.setdefault("forwards", [0])
        counter[0] += 1
        return values, counter, counter[0]

    def forward(self, x: np.ndarray) -> Tensor:
        """The training forward on ``x``; backward through the result runs the plan."""
        if x.shape != self.input_shape or x.dtype != self.input_dtype:
            raise PlanMismatchError(
                f"plan traced for {self.input_shape}/{self.input_dtype}, "
                f"got {x.shape}/{x.dtype}"
            )
        values, counter, generation = self._run_forward(x)
        with self._count_lock:
            self.executions += 1
        out = np.empty_like(values[self.output_slot])
        np.copyto(out, values[self.output_slot])

        def backward(g: np.ndarray, res: tuple, needs: tuple) -> tuple:
            # The reverse steps hand the parameters their gradients.
            nonlocal values
            if counter[0] != generation:
                values = self._run_forward(x)[0]
            values[self.seed_slot] = g
            run_steps(self._reverse_runs, values, self.step_seconds, first=self.n_forward)
            return ()

        return Tensor.from_op(out, self.params, backward)
