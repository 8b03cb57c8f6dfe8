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
transforms and contraction.  ``einsum`` is refused.

Allocation discipline inside ``run`` closures is checked statically by
rule ``RPR009`` (see ``repro/checks/rules/compile.py``): fresh
``np.empty``/``np.zeros`` or Tensor construction in a plan-executed hot
path is an arena bypass unless explicitly justified.
"""

from __future__ import annotations

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

def _mode_contraction(subscripts: str, x_shape, w_shape, ctype) -> Callable:
    """A call-time replayer for ``fft_ops._mode_einsum`` at fixed shapes.

    ``np.einsum(..., optimize=True)`` re-runs the contraction-path search
    on every call before dispatching to its batched-matmul lowering.  The
    path is a pure function of (subscripts, shapes), and a plan executes
    one fixed shape forever, so we resolve it once at build time and call
    the lowering directly.  Guarded twice: the replay is probed for
    bitwise equality against eager at build time, and any surprise
    (numpy internals moved, multi-step path) falls back to the eager
    ``_mode_einsum`` itself.  The batch-invariant flag is still consulted
    per call — under it, eager uses ``optimize=False`` and so do we.
    """
    eager = lambda X, W: fft_ops._mode_einsum(subscripts, X, W)  # noqa: E731
    try:
        from numpy._core.einsumfunc import bmm_einsum as _bmm
    except (ImportError, AttributeError):
        return eager
    dummies = (np.zeros(x_shape, ctype), np.zeros(w_shape, ctype))
    try:
        _, contractions = np.einsum_path(
            subscripts, *dummies, optimize=True, einsum_call=True
        )
    except TypeError:
        return eager
    if len(contractions) != 1:
        return eager
    inds, lowered, _ = contractions[0]
    swapped = tuple(inds) == (1, 0)

    rng = np.random.default_rng(12345)
    pX, pW = (
        (rng.standard_normal(s) + 1j * rng.standard_normal(s)).astype(ctype)
        for s in (x_shape, w_shape)
    )
    want = np.einsum(subscripts, pX, pW, optimize=True)
    got = _bmm(lowered, pW, pX) if swapped else _bmm(lowered, pX, pW)
    if not (np.array_equal(want, got) and want.dtype == got.dtype):
        return eager

    if swapped:
        def contract(X: np.ndarray, W: np.ndarray) -> np.ndarray:
            if fft_ops._BATCH_INVARIANT.enabled:
                return np.einsum(subscripts, X, W, optimize=False)
            return _bmm(lowered, W, X)
    else:
        def contract(X: np.ndarray, W: np.ndarray) -> np.ndarray:
            if fft_ops._BATCH_INVARIANT.enabled:
                return np.einsum(subscripts, X, W, optimize=False)
            return _bmm(lowered, X, W)

    return contract


def _fft_transforms(x_shape, y_shape, axes, s, rtype, ctype):
    """Fixed-shape ``(rfftn, irfftn)`` callables for the spectral kernels.

    The scipy wrappers re-derive shape/axis/normalisation bookkeeping on
    every call — roughly two thirds of the wall time of a serving-scale
    transform.  A plan executes one fixed shape forever, so the
    bookkeeping is resolved once here and the pocketfft C entry points
    are called directly.  Guarded like :func:`_mode_contraction`: both
    directions are probed for bitwise equality against the wrappers at
    build time, any surprise (scipy internals moved, signature change,
    mismatch) falls back to the wrappers, and the wrappers are also used
    whenever ``fft_ops._fft`` has been swapped out — the obs profiling
    hooks count FFT calls by replacing that attribute, and compiled
    plans must stay visible to them.
    """
    def wrap_fwd(a: np.ndarray) -> np.ndarray:
        return fft_ops._fft.rfftn(a, axes=axes, workers=fft_ops._FFT_WORKERS)

    def wrap_inv(a: np.ndarray) -> np.ndarray:
        return fft_ops._fft.irfftn(a, s=s, axes=axes, workers=fft_ops._FFT_WORKERS)

    try:
        from scipy.fft._pocketfft import pypocketfft as pfft
    except ImportError:
        return wrap_fwd, wrap_inv
    pos_axes = tuple(ax % len(x_shape) for ax in axes)
    lastsize = int(s[-1])
    # inorm encodes the wrappers' default norm=None: 0 (unscaled) forward,
    # 2 (1/N) inverse.  Verified bitwise by the probe below.
    rng = np.random.default_rng(20240)
    px = rng.standard_normal(x_shape).astype(rtype)
    pY = (rng.standard_normal(y_shape)
          + 1j * rng.standard_normal(y_shape)).astype(ctype)
    try:
        want_X, got_X = wrap_fwd(px), pfft.r2c(px, pos_axes, True, 0, None, 1)
        want_y, got_y = wrap_inv(pY), pfft.c2r(pY, pos_axes, lastsize, False, 2, None, 1)
    except (TypeError, ValueError):
        return wrap_fwd, wrap_inv
    if not (np.array_equal(want_X, got_X) and want_X.dtype == got_X.dtype
            and np.array_equal(want_y, got_y) and want_y.dtype == got_y.dtype):
        return wrap_fwd, wrap_inv

    def fwd(a: np.ndarray) -> np.ndarray:
        if fft_ops._fft is not _scipy_fft:
            return fft_ops._fft.rfftn(a, axes=axes, workers=fft_ops._FFT_WORKERS)
        return pfft.r2c(a, pos_axes, True, 0, None, fft_ops._FFT_WORKERS or 1)

    def inv(a: np.ndarray) -> np.ndarray:
        if fft_ops._fft is not _scipy_fft:
            return fft_ops._fft.irfftn(a, s=s, axes=axes, workers=fft_ops._FFT_WORKERS)
        return pfft.c2r(a, pos_axes, lastsize, False, 2, None,
                        fft_ops._FFT_WORKERS or 1)

    return fwd, inv


def _lower_spectral_conv(b: PlanBuilder, rec: TraceRecord, spec: Primitive, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    x, wr, wi, modes = spec.bind(rec.args, rec.kwargs)
    modes = tuple(modes)
    d = len(modes)
    getx, getwr, getwi = b.getter(x), b.getter(wr), b.getter(wi)
    B, Cin = x.data.shape[:2]
    grid = x.data.shape[2:]
    Cout = wr.data.shape[2]
    spec_shape = grid[:-1] + (grid[-1] // 2 + 1,)
    idx = [(slice(None), slice(None)) + blk for blk in fft_ops.mode_blocks(grid, modes)]
    ctype = np.complex64 if dtype == np.float32 else np.complex128
    xs, ws, ys = fft_ops._subscripts(d)
    # The non-retained modes stay zero for the plan's lifetime: the block
    # slices are disjoint and fully rewritten each call, so zeroing once
    # at materialisation reproduces the eager per-call np.zeros exactly.
    y_slot = b.scratch_slot((B, Cout) + spec_shape, ctype, init=lambda buf: buf.fill(0.0))
    contract = _mode_contraction(
        f"{xs},{ws}->{ys}", (B, Cin) + modes, (Cin, Cout) + modes, ctype
    )
    fwd, inv = _fft_transforms(
        (B, Cin) + grid, (B, Cout) + spec_shape, tuple(range(-d, 0)), grid, dtype, ctype
    )
    forward, weights = spec.forward, fft_ops.complex_weights

    def run(values: list) -> None:
        values[out_slot], _ = forward(
            getx(values), weights(getwr(values), getwi(values)), idx,
            fwd, inv, contract, values[y_slot],
        )

    flops = (2 * fft_ops.fft_flops(B, Cin + Cout, grid)
             + 8 * B * Cin * Cout * len(idx) * math.prod(modes))
    return Step(rec.op, run, out_slot, shape, dtype, flops=flops, fresh=True,
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
