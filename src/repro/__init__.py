"""repro — Fourier neural operators for spatiotemporal dynamics in 2-D turbulence.

A from-scratch, NumPy-only reproduction of Atif et al. (SC 2024):

* :mod:`repro.tensor` — reverse-mode autograd engine with analytic FFT
  adjoints for the spectral convolutions.
* :mod:`repro.nn` / :mod:`repro.optim` — FNO architectures (temporal-channel
  2-D and space–time 3-D), losses, Adam + StepLR.
* :mod:`repro.lbm` — entropic lattice Boltzmann (D2Q9), the data generator.
* :mod:`repro.ns` — pseudo-spectral and finite-difference Navier–Stokes
  solvers, the hybrid scheme's PDE partners.
* :mod:`repro.data` — trajectory generation, windowing, normalisation, IO.
* :mod:`repro.analysis` — global statistics, separation/correlation curves,
  Lyapunov exponents, spectra, error metrics.
* :mod:`repro.core` — training protocol, iterative roll-outs and the hybrid
  FNO–PDE driver.

Quickstart::

    from repro.data import DataGenConfig, generate_dataset
    from repro.core import ChannelFNOConfig, TrainingConfig, Trainer, build_model

See ``examples/quickstart.py`` for an end-to-end run.
"""

from . import analysis, core, data, lbm, nn, ns, ns3d, optim, tensor, utils

__version__ = "1.0.0"

__all__ = [
    "analysis", "core", "data", "lbm", "nn", "ns", "ns3d", "optim", "tensor", "utils",
    "__version__",
]
