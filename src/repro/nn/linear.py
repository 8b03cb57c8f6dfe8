"""Dense layers acting on the channel axis.

All FNO tensors use the channel-first layout ``(batch, channels, *grid)``,
so the "fully connected" layers of the reference implementation become
pointwise (1×1 convolution style) channel mixes, implemented with einsum.
"""

from __future__ import annotations

import math

import numpy as np

from ..tensor import Tensor, ops
from ..utils.rng import fallback_rng
from .activations import activation_op
from .module import Module, Parameter

__all__ = ["ChannelLinear", "Linear", "ChannelMLP"]


def _kaiming_uniform(rng: np.random.Generator, fan_in: int, shape, dtype) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


class ChannelLinear(Module):
    """Pointwise linear map over the channel axis (axis 1).

    Input ``(B, C_in, *grid)`` → output ``(B, C_out, *grid)``; equivalent
    to a 1×1 convolution.  Used for the FNO lifting, the per-layer local
    (bypass) transform, and the projection head.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        super().__init__()
        rng = fallback_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.weight = Parameter(
            _kaiming_uniform(rng, in_channels, (in_channels, out_channels), dtype)
        )
        self.bias = Parameter(_kaiming_uniform(rng, in_channels, (out_channels,), dtype)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[1] != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {x.shape[1]}")
        return ops.channel_linear(x, self.weight, self.bias)


class Linear(Module):
    """Standard dense layer on the *last* axis: ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        super().__init__()
        rng = fallback_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            _kaiming_uniform(rng, in_features, (in_features, out_features), dtype)
        )
        self.bias = Parameter(_kaiming_uniform(rng, in_features, (out_features,), dtype)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = ops.matmul(x, self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class ChannelMLP(Module):
    """Two-layer pointwise MLP over channels, the FNO projection head.

    The hidden nonlinearity defaults to GELU (reference architecture) but
    can be any of ``"gelu"``, ``"relu"``, ``"tanh"``.
    """

    def __init__(
        self,
        in_channels: int,
        hidden_channels: int,
        out_channels: int,
        activation: str = "gelu",
        rng: np.random.Generator | None = None,
        dtype=np.float64,
    ):
        super().__init__()
        rng = fallback_rng(rng)
        self.activation = str(activation)
        self._act = activation_op(self.activation)
        self.fc1 = ChannelLinear(in_channels, hidden_channels, rng=rng, dtype=dtype)
        self.fc2 = ChannelLinear(hidden_channels, out_channels, rng=rng, dtype=dtype)

    def forward(self, x: Tensor) -> Tensor:
        return self.fc2(self._act(self.fc1(x)))
