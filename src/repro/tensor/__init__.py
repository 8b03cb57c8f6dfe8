"""A small reverse-mode autodiff engine on NumPy arrays.

Public surface:

* :class:`Tensor` — array wrapper that keeps its backward graph.
* :mod:`repro.tensor.ops` — differentiable primitives (also installed as
  Tensor dunders).
* :mod:`repro.tensor.fft_ops` — fused spectral-convolution ops used by the
  Fourier neural operator layers.
"""

from . import fft_ops, ops, recording
from .fft_ops import (
    fft_workers,
    set_fft_workers,
    solenoidal_projection_2d,
    spectral_conv,
)
from .ops import *  # noqa: F403 -- the differentiable primitives (ops.__all__)
from .tensor import Tensor, is_grad_enabled, no_grad, unbroadcast

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "unbroadcast",
    "ops", "fft_ops", "recording", "spectral_conv", "solenoidal_projection_2d",
    "fft_workers", "set_fft_workers",
    *ops.__all__,
]
