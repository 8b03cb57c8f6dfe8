"""Fourier neural operator architectures.

Two models, matching Sec. V of the paper:

* :class:`FNO2d` — "2D FNO with temporal channels": Fourier modes over the
  two spatial axes, time snapshots stacked along the channel axis in
  chronological order (input channels = input snapshots × fields, output
  channels = output snapshots × fields).
* :class:`FNO3d` — Fourier modes over two space axes and one time axis;
  space and time are treated on the same footing.

Both follow the reference architecture: channel lifting, ``n_layers``
Fourier blocks (spectral convolution + pointwise linear bypass, GELU
between blocks), and a two-layer pointwise projection head.  Normalised
grid coordinates are appended to the input channels (2 for FNO2d, 3 for
FNO3d) as in the original implementation.
"""

from __future__ import annotations

import numpy as np

from ..tensor import Tensor, ops
from ..utils.rng import fallback_rng
from .linear import ChannelLinear, ChannelMLP
from .module import Module, ModuleList
from .spectral import SolenoidalProjection2d, SpectralConv

__all__ = ["FNO1d", "FNO2d", "FNO3d"]

_ACTIVATIONS = {"gelu": ops.gelu, "relu": ops.relu, "tanh": ops.tanh}


def _resolve_activation(name: str):
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r} (choose from {sorted(_ACTIVATIONS)})"
        ) from None


class FNO1d(Module):
    """1-D Fourier neural operator (canonical Burgers benchmark).

    Maps ``(B, in_channels, n)`` to ``(B, out_channels, n)``; a
    normalised coordinate channel is appended when ``append_grid``.
    """

    def __init__(
        self,
        in_channels: int = 1,
        out_channels: int = 1,
        modes: int = 16,
        width: int = 32,
        n_layers: int = 4,
        projection_channels: int = 128,
        append_grid: bool = True,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        super().__init__()
        rng = fallback_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.modes = int(modes)
        self.width = int(width)
        self.n_layers = int(n_layers)
        self.append_grid = bool(append_grid)
        self.dtype = np.dtype(dtype)

        lift_in = in_channels + (1 if append_grid else 0)
        self.lifting = ChannelLinear(lift_in, width, rng=rng, dtype=dtype)
        self.spectral_layers = ModuleList(
            SpectralConv(width, width, (modes,), rng=rng, dtype=dtype)
            for _ in range(self.n_layers)
        )
        self.local_layers = ModuleList(
            ChannelLinear(width, width, rng=rng, dtype=dtype) for _ in range(self.n_layers)
        )
        self.projection = ChannelMLP(width, projection_channels, out_channels, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        if x.shape[1] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {x.shape[1]}")
        if self.append_grid:
            B, _, n = x.shape
            grid = np.broadcast_to(
                np.linspace(0.0, 1.0, n, endpoint=False, dtype=self.dtype)[None, None, :],
                (B, 1, n),
            )
            x = ops.concatenate([x, Tensor(grid.copy())], axis=1)
        h = self.lifting(x)
        for i in range(self.n_layers):
            h = self.spectral_layers[i](h) + self.local_layers[i](h)
            if i < self.n_layers - 1:
                h = ops.gelu(h)
        return self.projection(h)


def _grid_2d(n1: int, n2: int, dtype) -> np.ndarray:
    """Normalised coordinates, shape ``(2, n1, n2)`` with values in [0, 1)."""
    gx = np.linspace(0.0, 1.0, n1, endpoint=False, dtype=dtype)
    gy = np.linspace(0.0, 1.0, n2, endpoint=False, dtype=dtype)
    return np.stack(np.meshgrid(gx, gy, indexing="ij"), axis=0)


def _grid_3d(n1: int, n2: int, n3: int, dtype) -> np.ndarray:
    """Normalised coordinates, shape ``(3, n1, n2, n3)``; time in [0, 1]."""
    gx = np.linspace(0.0, 1.0, n1, endpoint=False, dtype=dtype)
    gy = np.linspace(0.0, 1.0, n2, endpoint=False, dtype=dtype)
    gt = np.linspace(0.0, 1.0, n3, dtype=dtype)
    return np.stack(np.meshgrid(gx, gy, gt, indexing="ij"), axis=0)


class FNO2d(Module):
    """2-D Fourier neural operator with temporal channels.

    Parameters
    ----------
    in_channels:
        Input snapshot channels (e.g. 10 time snapshots × fields).
    out_channels:
        Output snapshot channels (the paper varies this over 1/5/10).
    modes1, modes2:
        Retained Fourier modes per spatial axis.
    width:
        Hidden channel count of the Fourier blocks.
    n_layers:
        Number of Fourier blocks (paper default 4).
    projection_channels:
        Hidden width of the projection head (reference default 128).
    append_grid:
        Append 2 normalised coordinate channels to the input.
    divergence_free:
        Append a parameter-free Leray projection so predictions are
        divergence-free by construction (requires the channel axis to
        hold (u_x, u_y) pairs).  Implements the architectural fix for
        the paper's Fig.-8 observation.
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
        modes1: int = 12,
        modes2: int = 12,
        width: int = 32,
        n_layers: int = 4,
        projection_channels: int = 128,
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
        self.modes1, self.modes2 = int(modes1), int(modes2)
        self.width = int(width)
        self.n_layers = int(n_layers)
        self.append_grid = bool(append_grid)
        self.activation = str(activation)
        self._act = _resolve_activation(self.activation)
        self.dtype = np.dtype(dtype)
        self._grid_cache: dict[tuple[int, int], np.ndarray] = {}

        if divergence_free and out_channels % 2 != 0:
            raise ValueError("divergence_free requires (u_x, u_y) channel pairs")
        self.divergence_free = bool(divergence_free)
        self._output_projection = SolenoidalProjection2d() if divergence_free else None

        lift_in = in_channels + (2 if append_grid else 0)
        self.lifting = ChannelLinear(lift_in, width, rng=rng, dtype=dtype)
        self.spectral_layers = ModuleList(
            SpectralConv(width, width, (modes1, modes2), rng=rng, dtype=dtype)
            for _ in range(self.n_layers)
        )
        self.local_layers = ModuleList(
            ChannelLinear(width, width, rng=rng, dtype=dtype) for _ in range(self.n_layers)
        )
        self.projection = ChannelMLP(
            width, projection_channels, out_channels,
            activation=self.activation, rng=rng, dtype=dtype,
        )

    # ------------------------------------------------------------------
    def _with_grid(self, x: Tensor) -> Tensor:
        if not self.append_grid:
            return x
        B, _, n1, n2 = x.shape
        key = (n1, n2)
        if key not in self._grid_cache:
            self._grid_cache[key] = _grid_2d(n1, n2, self.dtype)
        grid = np.broadcast_to(self._grid_cache[key], (B, 2, n1, n2))
        return ops.concatenate([x, Tensor(grid.copy())], axis=1)

    def forward(self, x: Tensor) -> Tensor:
        """Map ``(B, in_channels, n1, n2)`` to ``(B, out_channels, n1, n2)``."""
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        if x.shape[1] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {x.shape[1]}")
        h = self.lifting(self._with_grid(x))
        for i in range(self.n_layers):
            h = self.spectral_layers[i](h) + self.local_layers[i](h)
            if i < self.n_layers - 1:
                h = self._act(h)
        out = self.projection(h)
        if self._output_projection is not None:
            out = self._output_projection(out)
        return out


class FNO3d(Module):
    """Space–time Fourier neural operator.

    Maps ``(B, in_channels, n1, n2, n_t)`` to
    ``(B, out_channels, n1, n2, n_t)``; the temporal axis is zero-padded
    by ``time_padding`` points before the Fourier blocks (time is not
    periodic) and cropped afterwards.
    """

    def __init__(
        self,
        in_channels: int = 1,
        out_channels: int = 1,
        modes1: int = 8,
        modes2: int = 8,
        modes3: int = 4,
        width: int = 8,
        n_layers: int = 4,
        projection_channels: int = 128,
        time_padding: int = 4,
        append_grid: bool = True,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        super().__init__()
        rng = fallback_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.modes1, self.modes2, self.modes3 = int(modes1), int(modes2), int(modes3)
        self.width = int(width)
        self.n_layers = int(n_layers)
        self.time_padding = int(time_padding)
        self.append_grid = bool(append_grid)
        self.dtype = np.dtype(dtype)
        self._grid_cache: dict[tuple[int, int, int], np.ndarray] = {}

        lift_in = in_channels + (3 if append_grid else 0)
        self.lifting = ChannelLinear(lift_in, width, rng=rng, dtype=dtype)
        self.spectral_layers = ModuleList(
            SpectralConv(width, width, (modes1, modes2, modes3), rng=rng, dtype=dtype)
            for _ in range(self.n_layers)
        )
        self.local_layers = ModuleList(
            ChannelLinear(width, width, rng=rng, dtype=dtype) for _ in range(self.n_layers)
        )
        self.projection = ChannelMLP(width, projection_channels, out_channels, rng=rng, dtype=dtype)

    # ------------------------------------------------------------------
    def _with_grid(self, x: Tensor) -> Tensor:
        if not self.append_grid:
            return x
        B, _, n1, n2, n3 = x.shape
        key = (n1, n2, n3)
        if key not in self._grid_cache:
            self._grid_cache[key] = _grid_3d(n1, n2, n3, self.dtype)
        grid = np.broadcast_to(self._grid_cache[key], (B, 3, n1, n2, n3))
        return ops.concatenate([x, Tensor(grid.copy())], axis=1)

    def forward(self, x: Tensor) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.dtype))
        if x.shape[1] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} input channels, got {x.shape[1]}")
        h = self.lifting(self._with_grid(x))
        if self.time_padding:
            pad_width = [(0, 0)] * (h.ndim - 1) + [(0, self.time_padding)]
            h = ops.pad(h, pad_width)
        for i in range(self.n_layers):
            h = self.spectral_layers[i](h) + self.local_layers[i](h)
            if i < self.n_layers - 1:
                h = ops.gelu(h)
        if self.time_padding:
            h = h[..., : -self.time_padding]
        return self.projection(h)
