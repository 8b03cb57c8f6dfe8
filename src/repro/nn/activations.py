"""Activation modules (thin wrappers over the tensor ops)."""

from __future__ import annotations

from ..tensor import Tensor, ops
from .module import Module

__all__ = ["GELU", "ReLU", "Tanh", "Sigmoid", "Identity", "get_activation", "activation_op"]


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops.gelu(x)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops.relu(x)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops.tanh(x)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return ops.sigmoid(x)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


_ACTIVATIONS = {"gelu": GELU, "relu": ReLU, "tanh": Tanh, "sigmoid": Sigmoid, "identity": Identity}
# The op (not module) form, for the FNO's blocks and projection head.
_ACTIVATION_OPS = {"gelu": ops.gelu, "relu": ops.relu, "tanh": ops.tanh}


def get_activation(name: str) -> Module:
    """Build an activation module from its lowercase name."""
    try:
        return _ACTIVATIONS[name.lower()]()
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; choose from {sorted(_ACTIVATIONS)}") from None


def activation_op(name: str):
    """The tensor op behind an FNO activation name."""
    try:
        return _ACTIVATION_OPS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r} (choose from {sorted(_ACTIVATION_OPS)})"
        ) from None
