"""Model builders mapping experiment configs to network instances.

The builders default to float32, the precision the paper trains in
(PyTorch's default); pass ``dtype=np.float64`` here for a float64
model.  A saved model is loaded and served in the dtype it was stored
in (:func:`repro.core.load_model`).
"""

from __future__ import annotations

import math

import numpy as np

from ..nn import FNO
from ..utils.rng import as_generator
from .config import ChannelFNOConfig, SpaceTimeFNOConfig, Spatial3DChannelsConfig

__all__ = ["build_model", "parameter_count"]


def _architecture(config) -> dict:
    """:class:`~repro.nn.FNO` keyword arguments for a model config.

    * :class:`ChannelFNOConfig` — the temporal-channel 2-D FNO of Sec. V.
    * :class:`SpaceTimeFNOConfig` — the space–time 3-D FNO of Sec. V:
      time is a Fourier axis (zero-padded, as it is not periodic), so the
      channels hold only the fields.
    * :class:`Spatial3DChannelsConfig` — the proposed 3-D extension: three
      periodic spatial Fourier axes, time snapshots in the channels.
    """
    if isinstance(config, ChannelFNOConfig):
        arch = dict(
            in_channels=config.in_channels, out_channels=config.out_channels,
            modes=(config.modes1, config.modes2),
            divergence_free=config.divergence_free, activation=config.activation,
        )
    elif isinstance(config, SpaceTimeFNOConfig):
        arch = dict(
            in_channels=config.n_fields, out_channels=config.n_fields,
            modes=(config.modes1, config.modes2, config.modes3),
            time_padding=config.time_padding,
        )
    elif isinstance(config, Spatial3DChannelsConfig):
        arch = dict(
            in_channels=config.in_channels, out_channels=config.out_channels,
            modes=(config.modes1, config.modes2, config.modes3),
        )
    else:
        raise TypeError(f"unknown model config {type(config).__name__}")
    return dict(
        arch, width=config.width, n_layers=config.n_layers,
        projection_channels=config.projection_channels, append_grid=config.append_grid,
    )


def build_model(config, rng=None, dtype=np.float32) -> FNO:
    """Instantiate the FNO a model config describes."""
    return FNO(**_architecture(config), rng=as_generator(rng), dtype=dtype)


build_fno2d_channels = build_model  # kept for benchmarks/ledger, which imports it


def parameter_count(config) -> int:
    """Closed-form trainable parameter count for a model config.

    Counts real scalars (a complex mode weight = 2).  Cross-checked
    against ``Module.num_parameters`` in the tests; used by the Table-I
    benchmark so the full 3D-FNO models never have to be materialised.
    """
    arch = _architecture(config)
    modes, w, p = arch["modes"], arch["width"], arch["projection_channels"]
    lift_in = arch["in_channels"] + (len(modes) if arch["append_grid"] else 0)
    # 2**(rank-1) corner blocks of complex weights, real and imaginary parts
    spectral = 2 ** (len(modes) - 1) * w * w * math.prod(modes) * 2
    local = w * w + w
    head = w * p + p + p * arch["out_channels"] + arch["out_channels"]
    return lift_in * w + w + arch["n_layers"] * (spectral + local) + head
