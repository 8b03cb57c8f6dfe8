"""Fused spectral-convolution primitives with analytic FFT adjoints.

The Fourier layer of an FNO is
``x -> irfftn( W * truncate( rfftn(x) ) )`` with complex weights ``W``
acting on the retained low-frequency modes.  The 2-D FNO with temporal
channels and the 3-D space–time FNO differ only in how many trailing axes
the layer transforms, so one rank-generic op, :func:`spectral_conv`,
serves 1-D, 2-D and 3-D inputs alike.  Rather than tracing complex
arithmetic through the generic autograd engine, the whole layer is a
single fused op whose backward pass uses the exact adjoints of NumPy's
real FFTs, derived as follows (real inner products throughout).

Let ``n`` be the length of the last transformed axis and ``m = n//2 + 1``
the half-spectrum size.  NumPy's ``irfft`` reconstructs
``x_r = (1/n) * sum_k w_k * Re(a_k e^{2πikr/n})`` where ``w_k = 2`` for
interior bins ``0 < k < n/2`` (their conjugates are implied) and
``w_k = 1`` for the edge bins ``k = 0`` and, for even ``n``, ``k = n/2``.
Hence, with ``N`` the product of all transformed axis lengths:

* ``adjoint(irfftn)(g)  = rfftn(g) * w / N``
* ``adjoint(rfftn)(G)   = N * irfftn(G / w)``

where ``w`` broadcasts along the last (half-spectrum) axis.  Complex
cotangents are stored with the convention ``G = dL/dRe + i dL/dIm``, under
which the adjoint of the linear mode-mixing ``Y = X W`` is
``G_X = G_Y conj(W)`` and ``G_W = sum_b G_Y conj(X)``.

Both identities are validated by adjoint dot-tests and finite differences
in ``tests/test_fft_ops.py``.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

# scipy's pocketfft preserves single precision (numpy's promotes float32
# input to complex128), which matters for float32 serving throughput.
from scipy import fft as _fft

from .recording import primitive
from .tensor import Tensor

__all__ = [
    "half_spectrum_weights",
    "irfftn_adjoint",
    "rfftn_adjoint",
    "spectral_conv",
    "solenoidal_projection_2d",
    "mode_blocks",
    "mode_mix",
    "fft_workers",
    "set_fft_workers",
]


# ---------------------------------------------------------------------------
# scipy.fft worker configuration
# ---------------------------------------------------------------------------

def _parse_fft_workers(raw: str | None) -> int | None:
    """``REPRO_FFT_WORKERS`` value -> worker count (None = scipy default)."""
    if raw is None or not raw.strip():
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_FFT_WORKERS must be an integer, got {raw!r}") from None
    return value if value > 0 else None


# Passed as ``workers=`` to every pocketfft call below — by the eager ops,
# their adjoints, and the compiled kernels in repro.compile, so the two
# execution paths always run the same FFT configuration.
_FFT_WORKERS: int | None = _parse_fft_workers(os.environ.get("REPRO_FFT_WORKERS"))


def fft_workers() -> int | None:
    """Current scipy.fft worker count (None means scipy's default)."""
    return _FFT_WORKERS


def set_fft_workers(workers: int | None) -> None:
    """Override the worker count (None restores scipy's default).

    Process-wide; compiled plans pick the new value up on their next
    execution because kernels read this module's state at call time.
    """
    global _FFT_WORKERS
    _FFT_WORKERS = None if workers is None else max(1, int(workers))


def half_spectrum_weights(n: int, dtype=np.float64) -> np.ndarray:
    """Hermitian multiplicity weights for a length-``n`` real FFT.

    Returns an array of length ``n//2 + 1`` holding 2 for bins whose
    conjugate mirror is implied by the half-spectrum storage and 1 for the
    self-conjugate edge bins (DC and, for even ``n``, Nyquist).
    """
    m = n // 2 + 1
    w = np.full(m, 2.0, dtype=dtype)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    return w


def _broadcast_last(w: np.ndarray, ndim: int) -> np.ndarray:
    """Reshape a 1-D weight vector to broadcast along the last axis."""
    return w.reshape((1,) * (ndim - 1) + (w.size,))


def irfftn_adjoint(g: np.ndarray, axes: tuple[int, ...], s: tuple[int, ...]) -> np.ndarray:
    """Adjoint of ``numpy.fft.irfftn(·, s=s, axes=axes)`` applied to real ``g``.

    ``axes`` must be the trailing axes in increasing order with the real
    (half-spectrum) axis last.  Returns the complex cotangent over the
    half-spectrum.
    """
    n_last = s[-1]
    n_total = float(np.prod(s))
    G = _fft.rfftn(g, s=s, axes=axes, workers=_FFT_WORKERS)
    w = _broadcast_last(half_spectrum_weights(n_last, dtype=g.dtype), G.ndim)
    return G * (w / n_total)


def rfftn_adjoint(G: np.ndarray, axes: tuple[int, ...], s: tuple[int, ...]) -> np.ndarray:
    """Adjoint of ``numpy.fft.rfftn(·, axes=axes)`` applied to complex ``G``.

    ``s`` is the spatial (real-domain) shape along ``axes``.  Returns the
    real cotangent.
    """
    n_last = s[-1]
    n_total = float(np.prod(s))
    w = _broadcast_last(half_spectrum_weights(n_last, dtype=G.real.dtype), G.ndim)
    return n_total * _fft.irfftn(G / w, s=s, axes=axes, workers=_FFT_WORKERS)


def mode_blocks(grid: tuple[int, ...], modes: tuple[int, ...]) -> list[tuple[slice, ...]]:
    """Corner index blocks retained by a spectral convolution over ``grid``.

    Every full (two-sided) axis keeps ``k ∈ [0, m) ∪ (-m, 0]``, giving a
    non-negative and a negative block each; the last (half-spectrum) axis
    always keeps ``[0, m)``.  A ``d``-axis grid therefore has
    ``2**(d-1)`` blocks.  The order is part of the weight layout: the
    first full axis varies fastest, so for 3-D the blocks are
    ``(+,+), (−,+), (+,−), (−,−)`` over the two full axes.
    """
    *full, n_last = grid
    *full_modes, m_last = modes
    signs = []
    for axis, (n, m) in enumerate(zip(full, full_modes), start=1):
        if 2 * m > n:
            raise ValueError(f"modes{axis}={m} too large for axis length {n}")
        signs.append((slice(0, m), slice(n - m, n)))
    m_half = n_last // 2 + 1
    if m_last > m_half:
        raise ValueError(f"modes{len(grid)}={m_last} exceeds half-spectrum size {m_half}")
    signs.append((slice(0, m_last),))
    return [tuple(reversed(blk)) for blk in itertools.product(*reversed(signs))]


def fft_flops(batch: int, channels: int, spatial: tuple[int, ...]) -> int:
    """FLOP estimate for one real FFT of ``batch * channels`` fields over ``spatial``."""
    n = int(np.prod(spatial, dtype=np.int64))
    return int(5 * batch * channels * n * max(1.0, math.log2(max(n, 2))))


def complex_weights(wr: np.ndarray, wi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The complex mode weights ``wr + i wi``, written mode-major.

    ``wr``/``wi`` are ``(blocks, Cin, Cout, *modes)``; the result is a
    contiguous ``(blocks, *modes, Cin, Cout)`` array, the layout
    :func:`mode_mix` reads one ``(Cin, Cout)`` matrix per mode from.
    """
    axes = (0, *range(3, wr.ndim), 1, 2)
    wr, wi = wr.transpose(axes), wi.transpose(axes)
    W = np.empty(wr.shape, np.result_type(wr.dtype, np.complex64)) if out is None else out
    W.real[...] = wr
    W.imag[...] = wi
    return W


def mode_mix(X: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Mix one retained mode block: ``Y[b, o, k] = sum_i X[b, i, k] W[k, i, o]``.

    ``X`` is ``(B, Cin, *modes)`` and ``W`` the block's mode-major
    ``(*modes, Cin, Cout)`` weights; returns ``(B, Cout, *modes)`` as a
    view.  This is a broadcast ``np.matmul`` whose stack axes are the
    batch and mode axes, so every product is one sample's
    ``(1, Cin) @ (Cin, Cout)``: a sample's bits cannot depend on how
    many other samples share the call.  The eager op, inference plans
    and training plans all mix modes here.
    """
    nd = X.ndim
    Y = np.matmul(X.transpose(0, *range(2, nd), 1)[..., None, :], W)
    return Y[..., 0, :].transpose(0, nd - 1, *range(1, nd - 1))


def inverse_scale(grid: tuple[int, ...], dtype) -> np.ndarray:
    """The ``1/N`` factor of an inverse transform over ``grid``, rounded
    the way pocketfft rounds its own (through long double)."""
    return np.asarray(np.longdouble(1) / math.prod(grid), dtype=dtype)


def spectral_transforms(grid: tuple[int, ...], m_last: int, dtype):
    """Mode-pruned ``(rfftn, irfftn)`` over the trailing ``len(grid)`` axes.

    Only the retained bins ``[:m_last]`` of the last (half-spectrum) axis
    are ever read or written, so the forward runs ``rfft`` on the last
    axis, keeps ``[:m_last]`` and runs the complex transform over the
    full axes on that block alone; the inverse runs the complex inverse
    on the block, writes it into ``pad`` (a zeroed half-spectrum buffer
    whose other bins stay zero) and finishes with ``irfft`` and the
    ``1/N`` scale.  Both match the full ``rfftn``/``irfftn`` bit for bit
    on the retained bins, because pocketfft transforms axis by axis,
    last axis first, and scales in its last pass.  These call the
    scipy.fft wrappers (looked up at call time, so the profiling hooks
    see them); compiled plans replay the same calls at fixed shapes.
    """
    d = len(grid)
    full, n_last = tuple(range(-d, -1)), grid[-1]
    scale = inverse_scale(grid, dtype)

    def rfftn(x: np.ndarray) -> np.ndarray:
        X = _fft.rfft(x, axis=-1, workers=_FFT_WORKERS)[..., :m_last]
        return _fft.fftn(X, axes=full, workers=_FFT_WORKERS) if full else X

    def irfftn(Y: np.ndarray, pad: np.ndarray) -> np.ndarray:
        pad[..., :m_last] = (_fft.ifftn(Y, axes=full, norm="forward", workers=_FFT_WORKERS)
                             if full else Y)
        y = _fft.irfft(pad, n=n_last, axis=-1, norm="forward", workers=_FFT_WORKERS)
        return np.multiply(y, scale, out=y)

    return rfftn, irfftn


def spectral_forward(x, W, idx, rfftn, irfftn, Y) -> tuple[np.ndarray, np.ndarray]:
    """The Fourier layer's forward, shared by the eager op and compiled plans.

    Transforms ``x`` with ``rfftn`` (retained last-axis bins only),
    mixes each retained mode block ``idx[b]`` with
    :func:`mode_mix` ``(X_block, W[b])`` into ``Y`` (which must be zero
    outside the blocks), and returns ``(y, X)``: ``irfftn(Y)`` in
    ``x``'s dtype and the pruned spectrum ``X``.  The eager op passes
    :func:`spectral_transforms` and a fresh zeroed ``Y``; a plan passes
    fixed-shape replays of the same transforms and its zero-initialised
    arena buffer.
    """
    X = rfftn(x)
    for b, ix in enumerate(idx):
        Y[ix] = mode_mix(X[ix], W[b])
    return irfftn(Y).astype(x.dtype, copy=False), X


def spectral_vjp(g, X, W, idx, rfftn, irfftn, w_last, needs, GX, gW):
    """Cotangents ``(x, W)`` of the Fourier layer, shared by eager and plans.

    ``g`` is the output cotangent, ``X``/``W`` the forward's pruned
    spectrum and complex weights, ``rfftn``/``irfftn`` the transforms
    the forward used and ``w_last`` the retained half-spectrum weights
    (:func:`half_spectrum_weights` ``[:m]``).  With ``N`` the grid size,
    ``GY = rfftn(g) w/N`` is the adjoint of the inverse transform; the
    mode mixing's adjoints give ``gW = sum_b GY conj(X)`` and
    ``GX = GY conj(W)``, and ``x``'s cotangent is ``N irfftn(GX / w)``.
    ``GX`` must be zero outside the blocks (it is overwritten in place).
    ``W`` is mode-major (:func:`complex_weights`); ``gW`` is filled in
    the ``(blocks, Cin, Cout, *modes)`` layout of ``wr``.  ``needs``
    says which of ``(x, W)`` to compute; the other comes back as None.
    """
    axes = "xyz"[:X.ndim - 2]
    xs, ws, ys = f"bi{axes}", f"{axes}io", f"bo{axes}"
    n_total = float(math.prod(g.shape[2:]))
    GY = rfftn(g)
    np.multiply(GY, w_last / n_total, out=GY)
    if needs[1]:
        for b, ix in enumerate(idx):
            gW[b] = np.einsum(f"{ys},{xs}->io{axes}", GY[ix], np.conj(X[ix]), optimize=True)
    dx = None
    if needs[0]:
        for b, ix in enumerate(idx):
            GX[ix] = np.einsum(f"{ys},{ws}->{xs}", GY[ix], np.conj(W[b]), optimize=True)
        dx = irfftn(np.divide(GX, w_last, out=GX))
        np.multiply(dx, n_total, out=dx)
    return dx, (gW if needs[1] else None)


def _layer(x_shape: tuple[int, ...], modes: tuple[int, ...], rtype):
    """Per-call set-up of one Fourier layer: ``(rfftn, irfftn, idx, ctype,
    half)`` for an input of ``x_shape``, shared by the op and its VJP."""
    grid = x_shape[2:]
    rfftn, irfftn = spectral_transforms(grid, modes[-1], rtype)
    idx = [(slice(None), slice(None)) + blk for blk in mode_blocks(grid, modes)]
    ctype = np.complex64 if rtype == np.float32 else np.complex128
    return rfftn, irfftn, idx, ctype, grid[:-1] + (grid[-1] // 2 + 1,)


def _spectral_conv_vjp(g, x, wr, wi, modes, *, res, needs, out=()) -> tuple:
    """Cotangents ``(x, wr, wi)`` of :func:`spectral_conv` through
    :func:`spectral_vjp`; ``res`` is the forward's ``(X, W)``."""
    X, W = res
    B, Cin = x.shape[:2]
    rfftn, irfftn, idx, ctype, half = _layer(x.shape, modes, x.dtype)
    w_last = half_spectrum_weights(x.shape[-1], dtype=x.dtype)[:modes[-1]]
    dx, gW = spectral_vjp(
        g, X, W, idx, rfftn,
        lambda GX: irfftn(GX, np.zeros((B, Cin) + half, dtype=ctype)),
        w_last, (needs[0], needs[1] or needs[2]),
        np.zeros(X.shape, dtype=ctype), np.empty(wr.shape, dtype=ctype),
    )
    return dx, (gW.real if needs[1] else None), (gW.imag if needs[2] else None)


@primitive(spectral_forward, out="spectral", vjp=_spectral_conv_vjp)
def spectral_conv(x: Tensor, wr: Tensor, wi: Tensor, modes: tuple[int, ...]) -> Tensor:
    """Differentiable Fourier-layer convolution over the trailing ``len(modes)`` axes.

    Parameters
    ----------
    x:
        Input of shape ``(batch, in_channels, *grid)`` (real); for the
        space–time FNO the grid axes are ``(x, y, t)``.
    wr, wi:
        Real and imaginary parts of the complex mode weights, each of
        shape ``(2**(d-1), in_channels, out_channels, *modes)`` with
        ``d = len(modes)`` — one slab per corner block of
        :func:`mode_blocks`.
    modes:
        Retained Fourier modes per transformed axis; the last entry
        counts bins of the half spectrum.

    Returns
    -------
    Tensor of shape ``(batch, out_channels, *grid)``.
    """
    d = len(modes)
    if x.data.ndim != d + 2:
        raise ValueError(f"input shape {x.data.shape} does not have {d} grid axes for modes {modes}")
    B, Cin = x.data.shape[:2]
    rfftn, irfftn, idx, ctype, half = _layer(x.data.shape, modes, x.data.dtype)
    if wr.data.shape[:2] != (len(idx), Cin):
        raise ValueError(
            f"weight shape {wr.data.shape} incompatible with input {x.data.shape} "
            f"and modes {modes}"
        )
    Cout = wr.data.shape[2]
    W = complex_weights(wr.data, wi.data)
    y, X = spectral_forward(
        x.data, W, idx, rfftn,
        lambda Y: irfftn(Y, np.zeros((B, Cout) + half, dtype=ctype)),
        np.zeros((B, Cout) + half[:-1] + (modes[-1],), dtype=ctype),
    )
    return Tensor.from_op(y, (x, wr, wi), _spectral_conv_vjp,
                          (x.data, wr.data, wi.data, modes), (X, W))


def _projection_multipliers(n1: int, n2: int, length: float, dtype):
    """``(kx, ky, inv_k2)`` for the 2-D Leray projection, Nyquist-zeroed.

    Zeroing the Nyquist lines keeps the projection exactly idempotent
    through the real-transform round-trip (the anisotropic ``k kᵀ``
    factor is not symmetric under Nyquist sign aliasing).
    """
    k1 = 2.0 * np.pi / length * np.fft.fftfreq(n1, d=1.0 / n1)
    k2_half = 2.0 * np.pi / length * np.fft.rfftfreq(n2, d=1.0 / n2)
    kx = np.broadcast_to(k1[:, None], (n1, k2_half.size)).astype(dtype).copy()
    ky = np.broadcast_to(k2_half[None, :], (n1, k2_half.size)).astype(dtype).copy()
    ksq = kx * kx + ky * ky
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_k2 = np.where(ksq > 0, 1.0 / np.where(ksq > 0, ksq, 1.0), 0.0)
    if n1 % 2 == 0:
        kx[n1 // 2, :] = 0.0
        ky[n1 // 2, :] = 0.0
    if n2 % 2 == 0:
        kx[:, -1] = 0.0
        ky[:, -1] = 0.0
    return kx, ky, inv_k2


# Multipliers are deterministic in (shape, length, dtype); cache them so
# neither the eager op nor a compiled plan rebuilds wavenumber grids per
# call.  Races at worst duplicate the computation of an identical value.
_PROJ_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def projection_multipliers(n1: int, n2: int, length: float, dtype):
    """Cached :func:`_projection_multipliers` (arrays are shared; do not mutate)."""
    key = (n1, n2, float(length), np.dtype(dtype).str)
    cached = _PROJ_CACHE.get(key)
    if cached is None:
        cached = _PROJ_CACHE[key] = _projection_multipliers(n1, n2, length, dtype)
    return cached


def solenoidal_apply_2d(
    arr: np.ndarray, kx: np.ndarray, ky: np.ndarray, inv_k2: np.ndarray
) -> np.ndarray:
    """Leray-project ``(B, 2S, n1, n2)`` velocity pairs (plain ndarray path).

    The eager op below calls it for its forward and its self-adjoint
    backward; compiled plans reach it through :func:`_solenoidal_forward`.
    """
    B, C, n1, n2 = arr.shape
    axes, s = (-2, -1), (n1, n2)
    spec = _fft.rfftn(arr.reshape(B, C // 2, 2, n1, n2), axes=axes, workers=_FFT_WORKERS)
    k_dot_u = kx * spec[:, :, 0] + ky * spec[:, :, 1]
    spec[:, :, 0] -= kx * k_dot_u * inv_k2
    spec[:, :, 1] -= ky * k_dot_u * inv_k2
    # Zero the Nyquist lines entirely (see _projection_multipliers).
    if n1 % 2 == 0:
        spec[:, :, :, n1 // 2, :] = 0.0
    if n2 % 2 == 0:
        spec[:, :, :, :, -1] = 0.0
    out = _fft.irfftn(spec, s=s, axes=axes, workers=_FFT_WORKERS)
    return out.reshape(B, C, n1, n2).astype(arr.dtype, copy=False)


def _solenoidal_forward(x: np.ndarray, length: float = 2.0 * np.pi) -> np.ndarray:
    return solenoidal_apply_2d(x, *projection_multipliers(*x.shape[2:], length, x.dtype))


def _solenoidal_vjp(g, x, length=2.0 * np.pi, *, res=(), needs, out=()) -> tuple:
    # Self-adjoint: the cotangent is projected like the input was.
    return (solenoidal_apply_2d(g, *projection_multipliers(*g.shape[2:], length, g.dtype)),)


@primitive(_solenoidal_forward, out="spectral", vjp=_solenoidal_vjp, vjp_out="view",
           flops=lambda out, x, length=None: 2 * fft_flops(*x.shape[:2], x.shape[2:]))
def solenoidal_projection_2d(x: Tensor, length: float = 2.0 * np.pi) -> Tensor:
    """Differentiable Leray projection of velocity pairs.

    ``x`` has shape ``(B, 2·S, n1, n2)`` with the channel axis holding
    ``S`` snapshots of ``(u_x, u_y)`` pairs; each pair is projected onto
    its divergence-free part (spectrally, Nyquist lines zeroed).

    The projection multiplier ``P(k) = I − k kᵀ/|k|²`` is Hermitian and
    commutes with the half-spectrum weights, so the operator is
    self-adjoint over the real inner product: the backward pass applies
    the very same projection to the cotangent (verified by gradcheck in
    the test suite).
    """
    _, channels, _, _ = x.data.shape
    if channels % 2 != 0:
        raise ValueError("channel axis must hold (u_x, u_y) pairs")
    return Tensor.from_op(_solenoidal_forward(x.data, length), (x,), _solenoidal_vjp,
                          (x.data, length))
