"""Neural network building blocks (NumPy autograd backed).

Provides a PyTorch-flavoured Module system, spectral convolution layers,
and the rank-generic FNO behind both architectures studied in the paper.
"""

from .activations import GELU, Identity, ReLU, Sigmoid, Tanh, get_activation
from .deeponet import DeepONet2d
from .fno import FNO
from .linear import ChannelLinear, ChannelMLP, Linear
from .losses import DivergenceLoss, H1Loss, LpLoss, MSELoss
from .module import Module, ModuleList, Parameter, Sequential
from .spectral import SolenoidalProjection2d, SpectralConv

__all__ = [
    "Module", "Parameter", "Sequential", "ModuleList",
    "Linear", "ChannelLinear", "ChannelMLP",
    "SpectralConv", "SolenoidalProjection2d",
    "FNO", "DeepONet2d",
    "GELU", "ReLU", "Tanh", "Sigmoid", "Identity", "get_activation",
    "LpLoss", "MSELoss", "H1Loss", "DivergenceLoss",
]
