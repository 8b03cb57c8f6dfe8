"""Model builders mapping experiment configs to network instances.

The builders default to float32, the precision the paper trains in
(PyTorch's default).  Serving loads checkpoints in float64 through
:class:`repro.serve.ModelRegistry`; pass ``dtype=np.float64`` here for
a float64 model.
"""

from __future__ import annotations

import numpy as np

from ..nn import FNO2d, FNO3d
from ..utils.rng import as_generator
from .config import ChannelFNOConfig, SpaceTimeFNOConfig, Spatial3DChannelsConfig

__all__ = [
    "build_fno2d_channels",
    "build_fno3d",
    "build_fno3d_spatial_channels",
    "build_model",
    "parameter_count",
]


def build_fno2d_channels(config: ChannelFNOConfig, rng=None, dtype=np.float32) -> FNO2d:
    """Instantiate the temporal-channel 2-D FNO of paper Sec. V."""
    rng = as_generator(rng)
    return FNO2d(
        in_channels=config.in_channels,
        out_channels=config.out_channels,
        modes1=config.modes1,
        modes2=config.modes2,
        width=config.width,
        n_layers=config.n_layers,
        projection_channels=config.projection_channels,
        append_grid=config.append_grid,
        divergence_free=config.divergence_free,
        activation=config.activation,
        rng=rng,
        dtype=dtype,
    )


def build_fno3d(config: SpaceTimeFNOConfig, rng=None, dtype=np.float32) -> FNO3d:
    """Instantiate the space–time 3-D FNO of paper Sec. V."""
    rng = as_generator(rng)
    return FNO3d(
        in_channels=config.n_fields,
        out_channels=config.n_fields,
        modes1=config.modes1,
        modes2=config.modes2,
        modes3=config.modes3,
        width=config.width,
        n_layers=config.n_layers,
        projection_channels=config.projection_channels,
        time_padding=config.time_padding,
        append_grid=config.append_grid,
        rng=rng,
        dtype=dtype,
    )


def build_fno3d_spatial_channels(config: Spatial3DChannelsConfig, rng=None, dtype=np.float32) -> FNO3d:
    """The paper's proposed 3-D extension: all three Fourier axes spatial
    (periodic, so no temporal padding), time snapshots in the channels."""
    rng = as_generator(rng)
    return FNO3d(
        in_channels=config.in_channels,
        out_channels=config.out_channels,
        modes1=config.modes1,
        modes2=config.modes2,
        modes3=config.modes3,
        width=config.width,
        n_layers=config.n_layers,
        projection_channels=config.projection_channels,
        time_padding=0,
        append_grid=config.append_grid,
        rng=rng,
        dtype=dtype,
    )


def build_model(config, rng=None, dtype=np.float32):
    """Dispatch on config type (used by the model zoo loader)."""
    if isinstance(config, ChannelFNOConfig):
        return build_fno2d_channels(config, rng, dtype)
    if isinstance(config, SpaceTimeFNOConfig):
        return build_fno3d(config, rng, dtype)
    if isinstance(config, Spatial3DChannelsConfig):
        return build_fno3d_spatial_channels(config, rng, dtype)
    raise TypeError(f"unknown model config {type(config).__name__}")


def parameter_count(config) -> int:
    """Closed-form trainable parameter count for a model config.

    Counts real scalars (a complex mode weight = 2).  Cross-checked
    against ``Module.num_parameters`` in the tests; used by the Table-I
    benchmark so the full 3D-FNO models never have to be materialised.
    """
    if isinstance(config, ChannelFNOConfig):
        lift_in = config.in_channels + (2 if config.append_grid else 0)
        w, L = config.width, config.n_layers
        spectral = L * 2 * w * w * config.modes1 * config.modes2 * 2
        local = L * (w * w + w)
        lifting = lift_in * w + w
        proj = w * config.projection_channels + config.projection_channels
        proj += config.projection_channels * config.out_channels + config.out_channels
        return spectral + local + lifting + proj
    if isinstance(config, SpaceTimeFNOConfig):
        lift_in = config.n_fields + (3 if config.append_grid else 0)
        w, L = config.width, config.n_layers
        spectral = L * 4 * w * w * config.modes1 * config.modes2 * config.modes3 * 2
        local = L * (w * w + w)
        lifting = lift_in * w + w
        proj = w * config.projection_channels + config.projection_channels
        proj += config.projection_channels * config.n_fields + config.n_fields
        return spectral + local + lifting + proj
    if isinstance(config, Spatial3DChannelsConfig):
        lift_in = config.in_channels + (3 if config.append_grid else 0)
        w, L = config.width, config.n_layers
        spectral = L * 4 * w * w * config.modes1 * config.modes2 * config.modes3 * 2
        local = L * (w * w + w)
        lifting = lift_in * w + w
        proj = w * config.projection_channels + config.projection_channels
        proj += config.projection_channels * config.out_channels + config.out_channels
        return spectral + local + lifting + proj
    raise TypeError(f"unknown model config {type(config).__name__}")
