"""Spectral convolution modules — the Fourier layers of the FNO.

One :class:`SpectralConv` serves every rank: it transforms the trailing
``len(modes)`` axes, so the 1-D Burgers FNO, the 2-D FNO with temporal
channels and the 3-D space–time FNO share one layer.  Complex mode
weights are stored as separate real/imaginary :class:`Parameter` arrays
(the autograd engine is real-valued); the fused forward/backward lives in
:mod:`repro.tensor.fft_ops`.

Initialisation follows the reference ``neuraloperator`` implementation:
``scale * U[0, 1)`` with ``scale = 1 / (in_channels * out_channels)``.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, solenoidal_projection_2d, spectral_conv
from ..utils.rng import fallback_rng
from .module import Module, Parameter

__all__ = ["SpectralConv", "SolenoidalProjection2d"]

# The performance ledger's traced train run wraps this module attribute
# by name; SpectralConv.forward calls the op through it.
spectral_conv2d = spectral_conv


class SpectralConv(Module):
    """Fourier layer: rFFT → truncate to low modes → mode-mix → irFFT.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts of the mixed feature maps.
    modes:
        Retained Fourier modes per transformed axis, e.g. ``(m,)``,
        ``(m1, m2)`` or ``(m1, m2, m3)``.  Each entry but the last counts
        both sign blocks of a full axis (the layer keeps
        ``k ∈ [0, m) ∪ (-m, 0]``); the last counts bins of the half
        spectrum.  The weights hold one slab per corner block, shape
        ``(2**(d-1), in_channels, out_channels, *modes)``.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        modes: tuple[int, ...],
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        super().__init__()
        rng = fallback_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.modes = tuple(int(m) for m in modes)
        scale = 1.0 / (in_channels * out_channels)
        shape = (2 ** (len(self.modes) - 1), in_channels, out_channels) + self.modes
        self.weight_real = Parameter((scale * rng.random(shape)).astype(dtype))
        self.weight_imag = Parameter((scale * rng.random(shape)).astype(dtype))

    def forward(self, x: Tensor) -> Tensor:
        return spectral_conv2d(x, self.weight_real, self.weight_imag, self.modes)


class SolenoidalProjection2d(Module):
    """Parameter-free layer projecting velocity pairs divergence-free.

    Addresses the paper's Fig.-8 observation that raw FNO predictions are
    not divergence-free: appending this layer makes incompressibility an
    architectural guarantee rather than a loss-term suggestion.  Expects
    the temporal-channel layout (channel axis = snapshots × (u_x, u_y)).
    """

    def __init__(self, length: float = 2.0 * np.pi):
        super().__init__()
        self.length = float(length)

    def forward(self, x: Tensor) -> Tensor:
        return solenoidal_projection_2d(x, self.length)
