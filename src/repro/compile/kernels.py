"""Plan lowering: one :class:`~repro.compile.plan.Step` per traced op.

Every op is lowered from the primitive table
(:data:`repro.tensor.recording.PRIMITIVES`).  A step's ``run(values)``
closure calls the op's shared forward, the very function the eager op
calls, so plan and eager run the same arithmetic by construction.  The
table's output kind picks where the result goes: an ``arena`` step hands
the forward its preallocated buffer as ``out=``, a ``view`` step stores
the view the forward returns, and ``fresh``/``spectral`` steps store a
new per-call array (where the underlying library allocates internally,
e.g. pocketfft, or where an ``out=`` variant could change a BLAS
accumulation path).  ``plan.execute(x)`` is therefore bit-for-bit equal to
the eager no-grad forward; property tests pin that for every op.

Only three ops have dedicated builders, each for something eager cannot
do: ``concatenate`` and ``pad`` write their constant regions once, when
the buffer is made, and ``spectral_conv`` runs fixed-shape replays of its
transforms around the eager op's :func:`~repro.tensor.fft_ops.mode_mix`.
``einsum`` is refused.

Allocation discipline inside ``run`` closures is checked statically by
rule ``RPR009`` (see ``repro/checks/rules/compile.py``): fresh
``np.empty``/``np.zeros`` or Tensor construction in a plan-executed hot
path is an arena bypass unless explicitly justified.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from scipy import fft as _scipy_fft

from ..tensor import fft_ops
from ..tensor.ops import weak_pair
from ..tensor.recording import PRIMITIVES, Primitive, TraceRecord
from ..tensor.tensor import Tensor
from .plan import PlanBuilder, Step, UnsupportedOpError

__all__ = ["lower"]


def lower(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    """Lower one traced op into a plan step."""
    spec = PRIMITIVES.get(rec.op)
    if spec is None:
        raise UnsupportedOpError(f"op {rec.op!r} has no compiled kernel")
    return _BUILDERS.get(rec.op, _lower_generic)(b, rec, spec, out_slot)


def _out_meta(rec: TraceRecord) -> tuple[tuple[int, ...], np.dtype]:
    return tuple(rec.out.data.shape), rec.out.data.dtype


def _operand_getter(b: PlanBuilder, value) -> Callable[[list], object]:
    if value is None:
        return lambda values: None
    if isinstance(value, (list, tuple)):
        gets = [b.getter(v) for v in value]
        return lambda values: [get(values) for get in gets]
    return b.getter(value)


def _arena_run(fwd, gets, statics, slot: int) -> Callable[[list], None]:
    # Specialised at build time so the common arities call the forward
    # directly, with no per-call walk over an argument list.
    if len(gets) == 1 and not statics:
        (g0,) = gets

        def run(values: list) -> None:
            fwd(g0(values), out=values[slot])
    elif len(gets) == 1:
        (g0,) = gets

        def run(values: list) -> None:
            fwd(g0(values), *statics, out=values[slot])
    elif len(gets) == 2 and not statics:
        g0, g1 = gets

        def run(values: list) -> None:
            fwd(g0(values), g1(values), out=values[slot])
    else:
        def run(values: list) -> None:
            fwd(*[get(values) for get in gets], *statics, out=values[slot])
    return run


def _value_run(fwd, gets, statics, slot: int) -> Callable[[list], None]:
    if len(gets) == 1:
        (g0,) = gets

        def run(values: list) -> None:
            values[slot] = fwd(g0(values), *statics)
    elif len(gets) == 2 and not statics:
        g0, g1 = gets

        def run(values: list) -> None:
            values[slot] = fwd(g0(values), g1(values))
    else:
        def run(values: list) -> None:
            values[slot] = fwd(*[get(values) for get in gets], *statics)
    return run


def _lower_generic(b: PlanBuilder, rec: TraceRecord, spec: Primitive, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    params = spec.bind(rec.args, rec.kwargs)
    operands, statics = params[:spec.arity], tuple(params[spec.arity:])
    if spec.weak:
        operands[-2:] = weak_pair(*operands[-2:])
    gets = [_operand_getter(b, value) for value in operands]
    if callable(spec.flops):
        flops = spec.flops(rec.out.data, *[p.data if isinstance(p, Tensor) else p for p in params])
    else:
        flops = spec.flops * int(np.prod(shape, dtype=np.int64))
    if spec.out == "arena":
        b.request_arena(out_slot, shape, dtype)
        return Step(rec.op, _arena_run(spec.forward, gets, statics, out_slot), out_slot,
                    shape, dtype, flops=flops, kind="arena")
    run = _value_run(spec.forward, gets, statics, out_slot)
    if spec.out == "view":
        src_slot = b.slot_for(operands[0]) if isinstance(operands[0], Tensor) else None
        if src_slot is not None:
            b.mark_view(out_slot, src_slot)
        return Step(rec.op, run, out_slot, shape, dtype, flops=flops, kind="view")
    return Step(rec.op, run, out_slot, shape, dtype, flops=flops, fresh=True,
                kind="spectral" if spec.out == "spectral" else "transient")


# ---------------------------------------------------------------------------
# dedicated builders
# ---------------------------------------------------------------------------

def _lower_pad(b: PlanBuilder, rec: TraceRecord, spec: Primitive, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    x, pad_width, constant_value = spec.bind(rec.args, rec.kwargs)
    getx = b.getter(x)
    fwd = spec.forward
    constant_value = float(constant_value)

    def init(buf: np.ndarray) -> None:
        buf.fill(constant_value)

    # Pinned: the margin region is the constant fill written once at
    # materialisation; only the interior is refreshed per call.
    b.request_arena(out_slot, shape, dtype, init=init, reusable=False)

    def run(values: list) -> None:
        fwd(getx(values), pad_width, constant_value, out=values[out_slot])

    return Step(rec.op, run, out_slot, shape, dtype, kind="arena")


def _lower_concatenate(b: PlanBuilder, rec: TraceRecord, spec: Primitive, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    tensors, axis = spec.bind(rec.args, rec.kwargs)
    axis = int(axis) % len(shape)
    offsets = np.cumsum(
        [0] + [(t.data if isinstance(t, Tensor) else np.asarray(t)).shape[axis] for t in tensors]
    )

    def region(start: int, stop: int) -> tuple:
        idx = [slice(None)] * len(shape)
        idx[axis] = slice(int(start), int(stop))
        return tuple(idx)

    from ..nn.module import Parameter

    pieces = []  # (region, getter) refreshed per call
    const_pieces = []  # (region, array) written once at materialisation
    for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
        reg = region(start, stop)
        if isinstance(t, Tensor) and b.slot_for(t) is None and not isinstance(t, Parameter):
            b.getter(t)  # validates provenance (rejects untraced intermediates)
            # Constant region (e.g. the appended coordinate grid): written
            # once by init instead of per call.
            const_pieces.append((reg, t.data))
        else:
            pieces.append((reg, b.getter(t)))

    def init(buf: np.ndarray) -> None:
        for reg, arr in const_pieces:
            buf[reg] = arr

    b.request_arena(out_slot, shape, dtype, init=init if const_pieces else None,
                    reusable=not const_pieces)

    def run(values: list) -> None:
        buf = values[out_slot]
        for reg, get in pieces:
            np.copyto(buf[reg], get(values))

    return Step(rec.op, run, out_slot, shape, dtype, kind="arena")


# ---------------------------------------------------------------------------
# spectral convolution: fixed-shape replays
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _fft_transforms(x_shape, grid, m_last, rtype, ctype):
    """Fixed-shape replays of :func:`fft_ops.spectral_transforms`.

    Returns ``(rfftn(a, half=None, out=None), irfftn(A, pad, out=None))``:
    the mode-pruned transforms with their intermediates and results
    written into the given buffers.  The scipy wrappers re-derive
    shape/axis/normalisation bookkeeping on every call — roughly two
    thirds of the wall time of a serving-scale transform.  A plan
    executes one fixed shape forever, so the bookkeeping is resolved once
    here and the pocketfft C entry points are called directly.  Both
    directions are probed for
    bitwise equality against the wrappers at build time, any surprise
    (scipy internals moved, signature change, mismatch) falls back to the
    wrappers, and the wrappers are also used whenever ``fft_ops._fft``
    has been swapped out — the obs profiling hooks count FFT calls by
    replacing that attribute, and compiled plans must stay visible to
    them.  Callers always use the returned arrays: the wrappers ignore
    the buffers.  The result depends on shapes and dtypes only, so it is
    built (and probed) once per key and shared by every layer and plan.
    """
    wrap_rfftn, wrap_irfftn = fft_ops.spectral_transforms(grid, m_last, rtype)

    def wrap_fwd(a: np.ndarray, half=None, out=None) -> np.ndarray:
        return wrap_rfftn(a)

    def wrap_inv(A: np.ndarray, pad: np.ndarray, out=None) -> np.ndarray:
        return wrap_irfftn(A, pad)

    try:
        from scipy.fft._pocketfft import pypocketfft as pfft
    except ImportError:
        return wrap_fwd, wrap_inv
    nd, d = len(x_shape), len(grid)
    last, full = nd - 1, tuple(range(nd - d, nd - 1))
    n_last, m = int(grid[-1]), int(m_last)
    scale = fft_ops.inverse_scale(grid, rtype)

    def fwd(a: np.ndarray, half=None, out=None) -> np.ndarray:
        if fft_ops._fft is not _scipy_fft:
            return wrap_rfftn(a)
        X = pfft.r2c(a, (last,), True, 0, half, fft_ops._FFT_WORKERS or 1)[..., :m]
        if full:
            return pfft.c2c(X, full, True, 0, out, fft_ops._FFT_WORKERS or 1)
        if out is None:
            return X
        np.copyto(out, X)
        return out

    def inv(A: np.ndarray, pad: np.ndarray, out=None) -> np.ndarray:
        if fft_ops._fft is not _scipy_fft:
            return wrap_irfftn(A, pad)
        workers = fft_ops._FFT_WORKERS or 1
        if full:
            pfft.c2c(A, full, False, 0, pad[..., :m], workers)
        else:
            np.copyto(pad[..., :m], A)
        y = pfft.c2r(pad, (last,), n_last, False, 0, out, workers)
        return np.multiply(y, scale, out=y)

    rng = np.random.default_rng(20240)
    half_shape = tuple(x_shape[:-1]) + (n_last // 2 + 1,)
    px = rng.standard_normal(x_shape, dtype=rtype)
    pY = rng.standard_normal(half_shape[:-1] + (2 * m,), dtype=rtype).view(ctype)
    try:
        want_X = wrap_rfftn(px)
        got_X = fwd(px, np.empty(half_shape, ctype), np.empty(want_X.shape, ctype))
        want_y = wrap_irfftn(pY, np.zeros(half_shape, ctype))
        got_y = inv(pY, np.zeros(half_shape, ctype), np.empty(x_shape, rtype))
    except (TypeError, ValueError):
        return wrap_fwd, wrap_inv
    if not (np.array_equal(want_X, got_X) and want_X.dtype == got_X.dtype
            and np.array_equal(want_y, got_y) and want_y.dtype == got_y.dtype):
        return wrap_fwd, wrap_inv
    return fwd, inv


class SpectralLayer:
    """Build-time set-up of one ``spectral_conv`` call, shared by the
    inference and training lowerings: geometry, the mode blocks, the
    fixed-shape transforms, and the pinned scratch slots
    (zeroed compact mode buffer, zeroed half-spectrum pad, r2c scratch),
    one per shape for the whole plan."""

    def __init__(self, b: PlanBuilder, rec: TraceRecord, spec: Primitive):
        x, wr, wi, modes = spec.bind(rec.args, rec.kwargs)
        self.x, self.wr, self.wi = x, wr, wi
        modes = tuple(modes)
        self.dtype = rec.out.data.dtype
        B, Cin = x.data.shape[:2]
        grid = x.data.shape[2:]
        Cout = wr.data.shape[2]
        self.shape_in = (B, Cin) + grid
        self.compact_in = (B, Cin) + grid[:-1] + (modes[-1],)
        self.compact_out = (B, Cout) + grid[:-1] + (modes[-1],)
        self.half_in = (B, Cin) + grid[:-1] + (grid[-1] // 2 + 1,)
        self.half_out = (B, Cout) + grid[:-1] + (grid[-1] // 2 + 1,)
        self.idx = [(slice(None), slice(None)) + blk for blk in fft_ops.mode_blocks(grid, modes)]
        self.ctype = np.complex64 if self.dtype == np.float32 else np.complex128
        self.w_last = fft_ops.half_spectrum_weights(grid[-1], dtype=self.dtype)[:modes[-1]]
        self.fwd, self.inv = _fft_transforms(self.shape_in, grid, modes[-1], self.dtype, self.ctype)
        zero = lambda buf: buf.fill(0.0)  # noqa: E731
        # The non-retained modes stay zero for the plan's lifetime: the
        # block slices are disjoint and fully rewritten each call, so
        # zeroing once at materialisation reproduces the eager per-call
        # np.zeros exactly.  The pad's retained bins are rewritten by
        # every inverse transform before it reads them.
        self.y_slot = b.shared_scratch("modes", self.compact_out, self.ctype, init=zero)
        self.pad_out = b.shared_scratch("pad", self.half_out, self.ctype, init=zero)
        self.r2c_in = b.shared_scratch("r2c", self.half_in, self.ctype)
        self.flops = (2 * fft_ops.fft_flops(B, Cin + Cout, grid)
                      + 8 * B * Cin * Cout * len(self.idx) * math.prod(modes))


def _lower_spectral_conv(b: PlanBuilder, rec: TraceRecord, spec: Primitive, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    layer = SpectralLayer(b, rec, spec)
    getx, getwr, getwi = b.getter(layer.x), b.getter(layer.wr), b.getter(layer.wi)
    reads = [b.read(slot) for slot in (layer.y_slot, layer.pad_out, layer.r2c_in)]
    forward, weights, fwd, inv = spec.forward, fft_ops.complex_weights, layer.fwd, layer.inv
    idx = layer.idx

    def run(values: list) -> None:
        Y, pad, half = (get(values) for get in reads)
        values[out_slot], _ = forward(
            getx(values), weights(getwr(values), getwi(values)), idx,
            lambda a: fwd(a, half), lambda A: inv(A, pad), Y,
        )

    return Step(rec.op, run, out_slot, shape, dtype, flops=layer.flops, fresh=True,
                kind="spectral")


# ``einsum`` is refused: its gradient-era parsing and optimize=True
# contraction paths make an equivalence claim untestable in general.
# Models built on it (DeepONet) fall back to eager execution via
# UnsupportedOpError at plan-build time.
def _refuse(b: PlanBuilder, rec: TraceRecord, spec: Primitive, out_slot: int) -> Step:
    raise UnsupportedOpError(f"op {rec.op!r} is not supported by the compiler")


_BUILDERS = {
    "pad": _lower_pad,
    "concatenate": _lower_concatenate,
    "spectral_conv": _lower_spectral_conv,
    "einsum": _refuse,
}
