"""The Fourier neural operator, for any number of grid axes.

Both models of Sec. V of the paper are :class:`FNO`: the "2D FNO with
temporal channels" (``modes=(m1, m2)`` over space, time snapshots × fields
stacked along the channel axis) and the "3D FNO" (``modes=(m1, m2, m3)``
over two space axes and time, treated on the same footing).

The architecture follows the reference implementation: channel lifting,
``n_layers`` Fourier blocks (spectral convolution + pointwise linear
bypass, activation between blocks), and a two-layer pointwise projection
head.  One normalised coordinate channel per grid axis is appended to the
input, as in the original code.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, ops
from ..utils.rng import fallback_rng
from .activations import activation_op
from .linear import ChannelLinear, ChannelMLP
from .module import Module, ModuleList
from .spectral import SolenoidalProjection2d, SpectralConv

__all__ = ["FNO"]


class FNO(Module):
    """Fourier neural operator over ``len(modes)`` grid axes.

    Maps ``(B, in_channels, *grid)`` to ``(B, out_channels, *grid)``.

    Parameters
    ----------
    modes:
        Retained Fourier modes per grid axis; its length is the grid rank.
    width, n_layers, projection_channels:
        Hidden channels of the Fourier blocks, their number (paper: 4),
        and the hidden width of the projection head (reference: 128).
    time_padding:
        Zero-pad the last grid axis by this many points before the Fourier
        blocks and crop it afterwards (a non-periodic time axis).
    append_grid:
        Append one normalised coordinate channel per grid axis.
    divergence_free:
        Rank 2 only: append a parameter-free Leray projection so
        predictions are divergence-free by construction (the channel axis
        must hold (u_x, u_y) pairs).  The architectural fix for the
        paper's Fig.-8 observation.
    activation:
        Nonlinearity between Fourier blocks and inside the projection
        head: ``"gelu"`` (reference default), ``"relu"``, or ``"tanh"``.
        On CPU serving, ``relu`` avoids the per-element ``erf`` cost of
        GELU, which dominates small-width forwards.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        modes: tuple,
        width: int = 32,
        n_layers: int = 4,
        projection_channels: int = 128,
        time_padding: int = 0,
        append_grid: bool = True,
        divergence_free: bool = False,
        activation: str = "gelu",
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        super().__init__()
        rng = fallback_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.modes = tuple(int(m) for m in modes)
        self.width = int(width)
        self.n_layers = int(n_layers)
        self.time_padding = int(time_padding)
        self.append_grid = bool(append_grid)
        self.activation = str(activation)
        self._act = activation_op(self.activation)
        self.dtype = np.dtype(dtype)
        self._grid_cache: dict[tuple[int, ...], np.ndarray] = {}

        if divergence_free and len(self.modes) != 2:
            raise ValueError(f"divergence_free needs a rank-2 FNO, got rank {len(self.modes)}")
        if divergence_free and out_channels % 2 != 0:
            raise ValueError("divergence_free requires (u_x, u_y) channel pairs")
        self.divergence_free = bool(divergence_free)
        self._output_projection = SolenoidalProjection2d() if divergence_free else None

        lift_in = in_channels + (len(self.modes) if append_grid else 0)
        self.lifting = ChannelLinear(lift_in, width, rng=rng, dtype=dtype)
        self.spectral_layers = ModuleList(
            SpectralConv(width, width, self.modes, rng=rng, dtype=dtype)
            for _ in range(self.n_layers)
        )
        self.local_layers = ModuleList(
            ChannelLinear(width, width, rng=rng, dtype=dtype) for _ in range(self.n_layers)
        )
        self.projection = ChannelMLP(
            width, projection_channels, out_channels,
            activation=self.activation, rng=rng, dtype=dtype,
        )

    def _grid(self, shape: tuple[int, ...]) -> np.ndarray:
        """Normalised coordinates, shape ``(len(shape), *shape)``, in [0, 1)."""
        if shape not in self._grid_cache:
            axes = [np.linspace(0.0, 1.0, n, endpoint=False, dtype=self.dtype) for n in shape]
            if len(shape) == 3:
                # The third axis of the space-time model is time, which is
                # not periodic, so its coordinates span [0, 1] inclusive.
                # Rank-3 models with three spatial axes keep the same rule.
                axes[2] = np.linspace(0.0, 1.0, shape[2], dtype=self.dtype)
            self._grid_cache[shape] = np.stack(np.meshgrid(*axes, indexing="ij"), axis=0)
        return self._grid_cache[shape]

    def forward(self, x: Tensor) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        rank = len(self.modes)
        if x.ndim != 2 + rank:
            raise ValueError(
                f"expected a (B, C, *grid) input with {2 + rank} axes for a "
                f"rank-{rank} FNO, got shape {tuple(x.shape)}"
            )
        if x.shape[1] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {x.shape[1]}")
        if self.append_grid:
            grid_shape = tuple(x.shape[2:])
            grid = np.broadcast_to(self._grid(grid_shape), (x.shape[0], rank) + grid_shape)
            x = ops.concatenate([x, Tensor(grid.copy())], axis=1)
        h = self.lifting(x)
        if self.time_padding:
            h = ops.pad(h, [(0, 0)] * (h.ndim - 1) + [(0, self.time_padding)])
        for i in range(self.n_layers):
            h = self.spectral_layers[i](h) + self.local_layers[i](h)
            if i < self.n_layers - 1:
                h = self._act(h)
        if self.time_padding:
            h = h[..., : -self.time_padding]
        out = self.projection(h)
        if self._output_projection is not None:
            out = self._output_projection(out)
        return out


FNO2d = FNO  # kept for benchmarks/ledger, which imports and patches FNO2d
