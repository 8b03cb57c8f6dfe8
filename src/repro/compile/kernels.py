"""Kernel builders: one compiled executor per traced op.

Each builder lowers one :class:`~repro.tensor.recording.TraceRecord` into
a :class:`~repro.compile.plan.Step` whose ``run(values)`` closure writes
the step output either into a preallocated arena buffer (``out=`` ufunc
calls, sliced ``copyto``) or as a fresh per-call array where the
underlying library allocates its result internally (pocketfft).

The cardinal rule is **bitwise equivalence with the eager op**: kernels
call the same ufuncs in the same order with the same scalar-promotion
behaviour, and anywhere an ``out=`` variant could conceivably change the
computation path (BLAS-backed einsum contractions) the kernel keeps the
eager allocate-then-copy form instead.  The equivalence is enforced by
property tests, not assumed.

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
from scipy import special as _sp_special

from ..tensor import fft_ops
from ..tensor.recording import TraceRecord
from ..tensor.tensor import Tensor
from .plan import PlanBuilder, Step, UnsupportedOpError

__all__ = ["KERNELS", "kernel"]

_SQRT_2 = math.sqrt(2.0)

KERNELS: dict[str, Callable] = {}


def kernel(name: str):
    """Register a builder for traced op ``name``."""

    def decorate(fn):
        KERNELS[name] = fn
        return fn

    return decorate


def _out_meta(rec: TraceRecord) -> tuple[tuple[int, ...], np.dtype]:
    return tuple(rec.out.data.shape), rec.out.data.dtype


def _weak_scalar(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _pair_getters(b: PlanBuilder, x, y):
    """Operand accessors replicating ``ops._t2`` scalar adoption.

    A bare Python scalar paired with a tensor is frozen as a 0-d constant
    of the tensor's dtype, exactly like the eager coercion path.
    """
    if isinstance(x, Tensor) and _weak_scalar(y):
        return b.getter(x), b.getter(np.asarray(y, dtype=x.data.dtype))
    if isinstance(y, Tensor) and _weak_scalar(x):
        return b.getter(np.asarray(x, dtype=y.data.dtype)), b.getter(y)
    return b.getter(x), b.getter(y)


# ---------------------------------------------------------------------------
# elementwise ufunc kernels (arena-backed out=)
# ---------------------------------------------------------------------------

def _binary_ufunc(ufunc, flops_per_elem: int = 1):
    def build(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
        shape, dtype = _out_meta(rec)
        getx, gety = _pair_getters(b, rec.args[0], rec.args[1])
        b.request_arena(out_slot, shape, dtype)

        def run(values: list) -> None:
            ufunc(getx(values), gety(values), out=values[out_slot])

        return Step(rec.op, run, out_slot, shape, dtype,
                    flops=flops_per_elem * int(np.prod(shape, dtype=np.int64)),
                    kind="arena")

    return build


def _unary_ufunc(ufunc, flops_per_elem: int = 1):
    def build(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
        shape, dtype = _out_meta(rec)
        getx = b.getter(rec.args[0])
        b.request_arena(out_slot, shape, dtype)

        def run(values: list) -> None:
            ufunc(getx(values), out=values[out_slot])

        return Step(rec.op, run, out_slot, shape, dtype,
                    flops=flops_per_elem * int(np.prod(shape, dtype=np.int64)),
                    kind="arena")

    return build


KERNELS["add"] = _binary_ufunc(np.add)
KERNELS["sub"] = _binary_ufunc(np.subtract)
KERNELS["mul"] = _binary_ufunc(np.multiply)
KERNELS["div"] = _binary_ufunc(np.divide)
KERNELS["maximum"] = _binary_ufunc(np.maximum)
KERNELS["minimum"] = _binary_ufunc(np.minimum)
KERNELS["neg"] = _unary_ufunc(np.negative)
KERNELS["exp"] = _unary_ufunc(np.exp, 8)
KERNELS["log"] = _unary_ufunc(np.log, 8)
KERNELS["sqrt"] = _unary_ufunc(np.sqrt, 4)
KERNELS["tanh"] = _unary_ufunc(np.tanh, 8)
KERNELS["sin"] = _unary_ufunc(np.sin, 8)
KERNELS["cos"] = _unary_ufunc(np.cos, 8)
KERNELS["abs_"] = _unary_ufunc(np.absolute)
KERNELS["sigmoid"] = _unary_ufunc(_sp_special.expit, 8)


@kernel("square")
def _build_square(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    getx = b.getter(rec.args[0])
    b.request_arena(out_slot, shape, dtype)

    def run(values: list) -> None:
        x = getx(values)
        np.multiply(x, x, out=values[out_slot])

    return Step(rec.op, run, out_slot, shape, dtype,
                flops=int(np.prod(shape, dtype=np.int64)), kind="arena")


@kernel("pow_")
def _build_pow(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    getx = b.getter(rec.args[0])
    exponent = float(rec.args[1])
    b.request_arena(out_slot, shape, dtype)

    def run(values: list) -> None:
        np.power(getx(values), exponent, out=values[out_slot])

    return Step(rec.op, run, out_slot, shape, dtype,
                flops=8 * int(np.prod(shape, dtype=np.int64)), kind="arena")


@kernel("relu")
def _build_relu(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    getx = b.getter(rec.args[0])
    b.request_arena(out_slot, shape, dtype)

    def run(values: list) -> None:
        np.maximum(getx(values), 0.0, out=values[out_slot])

    return Step(rec.op, run, out_slot, shape, dtype,
                flops=int(np.prod(shape, dtype=np.int64)), kind="arena")


@kernel("gelu")
def _build_gelu(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    getx = b.getter(rec.args[0])
    b.request_arena(out_slot, shape, dtype)

    def run(values: list) -> None:
        # Mirrors ops.gelu step for step; the final multiply is written
        # operand-swapped into the same buffer (IEEE multiplication is
        # commutative at the bit level).
        x = getx(values)
        buf = values[out_slot]
        np.divide(x, _SQRT_2, out=buf)
        _sp_special.erf(buf, out=buf)
        buf += 1.0
        buf *= 0.5
        np.multiply(buf, x, out=buf)

    return Step(rec.op, run, out_slot, shape, dtype,
                flops=12 * int(np.prod(shape, dtype=np.int64)), kind="arena")


@kernel("clip")
def _build_clip(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    getx = b.getter(rec.args[0])
    lo, hi = rec.args[1], rec.args[2]
    b.request_arena(out_slot, shape, dtype)

    def run(values: list) -> None:
        np.clip(getx(values), lo, hi, out=values[out_slot])

    return Step(rec.op, run, out_slot, shape, dtype,
                flops=2 * int(np.prod(shape, dtype=np.int64)), kind="arena")


@kernel("where")
def _build_where(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    cond = rec.args[0]
    cond_arr = np.asarray(cond.data if isinstance(cond, Tensor) else cond, dtype=bool)
    getc = b.getter(cond) if isinstance(cond, Tensor) else None
    getx, gety = _pair_getters(b, rec.args[1], rec.args[2])

    def run(values: list) -> None:
        c = np.asarray(getc(values), dtype=bool) if getc is not None else cond_arr
        values[out_slot] = np.where(c, getx(values), gety(values))

    return Step(rec.op, run, out_slot, shape, dtype,
                flops=int(np.prod(shape, dtype=np.int64)), fresh=True)


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------

@kernel("channel_linear")
def _build_channel_linear(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    x, weight = rec.args[0], rec.args[1]
    bias = rec.args[2] if len(rec.args) > 2 else rec.kwargs.get("bias")
    getx = b.getter(x)
    getw = b.getter(weight)
    getbias = b.getter(bias) if bias is not None else None
    batch, cin = x.data.shape[0], x.data.shape[1]
    cout = shape[1]
    n_grid = int(np.prod(shape[2:], dtype=np.int64)) if len(shape) > 2 else 1
    b.request_arena(out_slot, shape, dtype)

    def run(values: list) -> None:
        flat = getx(values).reshape(batch, cin, -1)
        oflat = values[out_slot].reshape(batch, cout, -1)
        np.matmul(getw(values).T, flat, out=oflat)
        if getbias is not None:
            oflat += getbias(values)[:, None]

    return Step(rec.op, run, out_slot, shape, dtype,
                flops=2 * batch * cin * cout * n_grid, kind="arena")


@kernel("matmul")
def _build_matmul(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    # Kept transient and allocation-identical to the eager op: BLAS may
    # pick a different accumulation path when handed an ``out=`` buffer
    # of unusual layout, and matmul here is off the FNO hot path anyway.
    shape, dtype = _out_meta(rec)
    getx, gety = _pair_getters(b, rec.args[0], rec.args[1])
    k = rec.args[0].data.shape[-1] if isinstance(rec.args[0], Tensor) else 1

    def run(values: list) -> None:
        values[out_slot] = getx(values) @ gety(values)

    return Step(rec.op, run, out_slot, shape, dtype,
                flops=2 * k * int(np.prod(shape, dtype=np.int64)), fresh=True)


@kernel("dot")
def _build_dot(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    getx, gety = _pair_getters(b, rec.args[0], rec.args[1])

    def run(values: list) -> None:
        values[out_slot] = np.asarray(np.vdot(getx(values), gety(values)))

    return Step(rec.op, run, out_slot, shape, dtype, flops=0, fresh=True)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

@kernel("reshape")
def _build_reshape(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    src = rec.args[0]
    getx = b.getter(src)
    target = rec.args[1]
    src_slot = b.slot_for(src) if isinstance(src, Tensor) else None
    if src_slot is not None:
        b.mark_view(out_slot, src_slot)

    def run(values: list) -> None:
        values[out_slot] = getx(values).reshape(target)

    return Step(rec.op, run, out_slot, shape, dtype, kind="view")


@kernel("transpose")
def _build_transpose(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    src = rec.args[0]
    getx = b.getter(src)
    axes = rec.args[1] if len(rec.args) > 1 else rec.kwargs.get("axes")
    if axes is None:
        axes = tuple(reversed(range(src.data.ndim)))
    axes = tuple(axes)
    src_slot = b.slot_for(src) if isinstance(src, Tensor) else None
    if src_slot is not None:
        b.mark_view(out_slot, src_slot)

    def run(values: list) -> None:
        values[out_slot] = getx(values).transpose(axes)

    return Step(rec.op, run, out_slot, shape, dtype, kind="view")


@kernel("moveaxis")
def _build_moveaxis(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    src = rec.args[0]
    getx = b.getter(src)
    source, destination = rec.args[1], rec.args[2]
    src_slot = b.slot_for(src) if isinstance(src, Tensor) else None
    if src_slot is not None:
        b.mark_view(out_slot, src_slot)

    def run(values: list) -> None:
        values[out_slot] = np.moveaxis(getx(values), source, destination)

    return Step(rec.op, run, out_slot, shape, dtype, kind="view")


@kernel("broadcast_to")
def _build_broadcast_to(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    getx = b.getter(rec.args[0])
    target = tuple(rec.args[1])

    def run(values: list) -> None:
        values[out_slot] = np.broadcast_to(getx(values), target).copy()

    return Step(rec.op, run, out_slot, shape, dtype, fresh=True)


@kernel("roll")
def _build_roll(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    getx = b.getter(rec.args[0])
    shift, axis = rec.args[1], rec.args[2]

    def run(values: list) -> None:
        values[out_slot] = np.roll(getx(values), shift, axis=axis)

    return Step(rec.op, run, out_slot, shape, dtype, fresh=True)


@kernel("getitem")
def _build_getitem(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    getx = b.getter(rec.args[0])
    index = rec.args[1]
    b.request_arena(out_slot, shape, dtype)

    def run(values: list) -> None:
        np.copyto(values[out_slot], getx(values)[index])

    return Step(rec.op, run, out_slot, shape, dtype, kind="arena")


@kernel("pad")
def _build_pad(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    src = rec.args[0]
    getx = b.getter(src)
    pad_width = np.asarray(rec.args[1] if len(rec.args) > 1 else rec.kwargs["pad_width"])
    constant_value = float(
        rec.args[2] if len(rec.args) > 2 else rec.kwargs.get("constant_value", 0.0)
    )
    if pad_width.ndim == 1:
        pad_width = np.broadcast_to(pad_width, (src.data.ndim, 2))
    interior = tuple(
        slice(int(before), int(before) + dim)
        for (before, _after), dim in zip(pad_width, src.data.shape)
    )

    def init(buf: np.ndarray) -> None:
        buf.fill(constant_value)

    # Pinned: the margin region is the constant fill written once at
    # materialisation; only the interior is refreshed per call.
    b.request_arena(out_slot, shape, dtype, init=init, reusable=False)

    def run(values: list) -> None:
        np.copyto(values[out_slot][interior], getx(values))

    return Step(rec.op, run, out_slot, shape, dtype, kind="arena")


@kernel("concatenate")
def _build_concatenate(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    tensors = list(rec.args[0])
    axis = int(rec.args[1] if len(rec.args) > 1 else rec.kwargs.get("axis", 0))
    axis %= len(shape)
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


@kernel("stack")
def _build_stack(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    tensors = list(rec.args[0])
    axis = int(rec.args[1] if len(rec.args) > 1 else rec.kwargs.get("axis", 0))
    axis %= len(shape)

    pieces = []
    for i, t in enumerate(tensors):
        idx = [slice(None)] * len(shape)
        idx[axis] = i
        pieces.append((tuple(idx), b.getter(t)))
    b.request_arena(out_slot, shape, dtype)

    def run(values: list) -> None:
        buf = values[out_slot]
        for reg, get in pieces:
            np.copyto(buf[reg], get(values))

    return Step(rec.op, run, out_slot, shape, dtype, kind="arena")


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

@kernel("sum_")
def _build_sum(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    getx = b.getter(rec.args[0])
    axis = rec.args[1] if len(rec.args) > 1 else rec.kwargs.get("axis")
    keepdims = bool(rec.args[2] if len(rec.args) > 2 else rec.kwargs.get("keepdims", False))

    def run(values: list) -> None:
        values[out_slot] = np.asarray(getx(values).sum(axis=axis, keepdims=keepdims))

    return Step(rec.op, run, out_slot, shape, dtype, fresh=True)


@kernel("mean")
def _build_mean(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    getx = b.getter(rec.args[0])
    axis = rec.args[1] if len(rec.args) > 1 else rec.kwargs.get("axis")
    keepdims = bool(rec.args[2] if len(rec.args) > 2 else rec.kwargs.get("keepdims", False))

    def run(values: list) -> None:
        values[out_slot] = np.asarray(getx(values).mean(axis=axis, keepdims=keepdims))

    return Step(rec.op, run, out_slot, shape, dtype, fresh=True)


# ---------------------------------------------------------------------------
# fused spectral ops
# ---------------------------------------------------------------------------

def _fft_flops(batch: int, channels: int, spatial: tuple[int, ...]) -> int:
    n = int(np.prod(spatial, dtype=np.int64))
    return int(5 * batch * channels * n * max(1.0, math.log2(max(n, 2))))


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


@kernel("spectral_conv")
def _build_spectral_conv(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    x, wr, wi = rec.args[0], rec.args[1], rec.args[2]
    modes = tuple(rec.args[3])
    d = len(modes)
    getx, getwr, getwi = b.getter(x), b.getter(wr), b.getter(wi)
    B, Cin = x.data.shape[:2]
    grid = x.data.shape[2:]
    Cout = wr.data.shape[2]
    spec = grid[:-1] + (grid[-1] // 2 + 1,)
    idx = [(slice(None), slice(None)) + blk for blk in fft_ops.mode_blocks(grid, modes)]
    ctype = np.complex64 if dtype == np.float32 else np.complex128
    axes = tuple(range(-d, 0))
    xs, ws, ys = fft_ops._subscripts(d)
    # The non-retained modes stay zero for the plan's lifetime: the block
    # slices are disjoint and fully rewritten each call, so zeroing once
    # at materialisation reproduces the eager per-call np.zeros exactly.
    y_slot = b.scratch_slot((B, Cout) + spec, ctype, init=lambda buf: buf.fill(0.0))
    contract = _mode_contraction(
        f"{xs},{ws}->{ys}", (B, Cin) + modes, (Cin, Cout) + modes, ctype
    )
    fwd, inv = _fft_transforms(
        (B, Cin) + grid, (B, Cout) + spec, axes, grid, dtype, ctype
    )

    def run(values: list) -> None:
        X = fwd(getx(values))
        W = getwr(values) + 1j * getwi(values)
        Y = values[y_slot]
        for bi, ix in enumerate(idx):
            Y[ix] = contract(X[ix], W[bi])
        values[out_slot] = inv(Y).astype(dtype, copy=False)

    flops = (2 * _fft_flops(B, Cin + Cout, grid)
             + 8 * B * Cin * Cout * len(idx) * math.prod(modes))
    return Step(rec.op, run, out_slot, shape, dtype, flops=flops, fresh=True,
                kind="spectral")


@kernel("solenoidal_projection_2d")
def _build_solenoidal(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
    shape, dtype = _out_meta(rec)
    x = rec.args[0]
    length = float(rec.args[1] if len(rec.args) > 1 else rec.kwargs.get("length", 2.0 * np.pi))
    getx = b.getter(x)
    B, C, n1, n2 = x.data.shape
    kx, ky, inv_k2 = fft_ops.projection_multipliers(n1, n2, length, x.data.dtype)

    def run(values: list) -> None:
        values[out_slot] = fft_ops.solenoidal_apply_2d(getx(values), kx, ky, inv_k2)

    return Step(rec.op, run, out_slot, shape, dtype,
                flops=2 * _fft_flops(B, C, (n1, n2)), fresh=True, kind="spectral")


# ``einsum`` is deliberately absent: its gradient-era parsing and
# optimize=True contraction paths make an out=-form equivalence claim
# untestable in general.  Models built on it (DeepONet) fall back to
# eager execution via UnsupportedOpError at plan-build time.
def _unsupported(name: str):
    def build(b: PlanBuilder, rec: TraceRecord, out_slot: int) -> Step:
        raise UnsupportedOpError(f"op {name!r} is not supported by the compiler")

    return build


KERNELS["einsum"] = _unsupported("einsum")
