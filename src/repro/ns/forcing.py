"""Forcing terms for sustained (non-decaying) 2-D turbulence.

The paper studies decaying turbulence and names forced turbulence as the
natural extension (Sec. I).  These forcings plug into both Navier–Stokes
solvers through their ``forcing=`` constructor argument; each returns the
vorticity-equation source term ``f_ω(x, t)`` on the grid.

* :class:`KolmogorovForcing` — the classic sinusoidal shear
  ``f_u = (A sin(k y), 0)`` whose curl is ``f_ω = −A k cos(k y)``.
* :class:`RingForcing` — stochastic band-limited forcing concentrated in
  a wavenumber ring, refreshed every ``decorrelation_time``.
* :class:`LinearDrag` — large-scale friction ``−μ ω`` that prevents the
  inverse cascade from piling energy into the box mode.
* :class:`CompositeForcing` — sums any of the above.
"""

from __future__ import annotations

import numpy as np

from ..utils.rng import as_generator
from .fields import irfft2, wavenumbers

__all__ = ["Forcing", "KolmogorovForcing", "RingForcing", "LinearDrag", "CompositeForcing"]


class Forcing:
    """Interface: ``__call__(omega, time) -> vorticity source term``."""

    def __call__(self, omega: np.ndarray, time: float) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class KolmogorovForcing(Forcing):
    """Steady sinusoidal shear forcing at wavenumber ``k`` along y.

    The velocity-space force ``(A sin(k y), 0)`` enters the vorticity
    equation as ``f_ω = −A k cos(k y)``.
    """

    def __init__(self, n: int, amplitude: float = 1.0, k: int = 4, length: float = 2.0 * np.pi):
        self.amplitude = float(amplitude)
        self.k = int(k)
        y = np.arange(n) * length / n
        k_phys = 2.0 * np.pi * self.k / length
        profile = -self.amplitude * k_phys * np.cos(k_phys * y)
        self._term = np.broadcast_to(profile[None, :], (n, n)).copy()

    def __call__(self, omega: np.ndarray, time: float) -> np.ndarray:
        return self._term


class RingForcing(Forcing):
    """Stochastic forcing with energy injected in a wavenumber ring.

    A new random band-limited field is drawn every ``decorrelation_time``
    (piecewise-constant-in-time forcing), normalised so its RMS amplitude
    is ``amplitude``.  Deterministic given the seed.
    """

    def __init__(
        self,
        n: int,
        amplitude: float = 1.0,
        k_peak: float = 10.0,
        k_width: float = 1.0,
        decorrelation_time: float = 0.1,
        length: float = 2.0 * np.pi,
        rng=None,
    ):
        self.n = int(n)
        self.amplitude = float(amplitude)
        self.k_peak = float(k_peak)
        self.k_width = float(k_width)
        self.decorrelation_time = float(decorrelation_time)
        self.length = float(length)
        self._rng = as_generator(rng)
        self._epoch = -1
        self._term = np.zeros((n, n))
        _, _, k2 = wavenumbers(n, length)
        k_mag = np.sqrt(k2)
        self._mask = np.exp(-0.5 * ((k_mag - self.k_peak) / self.k_width) ** 2)
        self._mask[0, 0] = 0.0

    def _refresh(self) -> None:
        phases = self._rng.uniform(0.0, 2.0 * np.pi, size=self._mask.shape)
        f_hat = self._mask * np.exp(1j * phases)
        if self.n % 2 == 0:
            f_hat[self.n // 2, :] = 0.0
            f_hat[:, -1] = 0.0
        field = irfft2(f_hat, self.n)
        rms = float(np.sqrt(np.mean(field**2)))
        self._term = field * (self.amplitude / max(rms, 1e-30))

    def __call__(self, omega: np.ndarray, time: float) -> np.ndarray:
        epoch = int(time / self.decorrelation_time)
        if epoch != self._epoch:
            self._epoch = epoch
            self._refresh()
        return self._term


class LinearDrag(Forcing):
    """Ekman-type friction ``f_ω = −μ ω`` absorbing the inverse cascade."""

    def __init__(self, mu: float = 0.1):
        if mu < 0:
            raise ValueError("drag coefficient must be non-negative")
        self.mu = float(mu)

    def __call__(self, omega: np.ndarray, time: float) -> np.ndarray:
        return -self.mu * omega


class CompositeForcing(Forcing):
    """Sum of forcing terms."""

    def __init__(self, *terms: Forcing):
        if not terms:
            raise ValueError("need at least one forcing term")
        self.terms = terms

    def __call__(self, omega: np.ndarray, time: float) -> np.ndarray:
        total = self.terms[0](omega, time)
        for term in self.terms[1:]:
            total = total + term(omega, time)
        return total
