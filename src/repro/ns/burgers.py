"""1-D viscous Burgers solver (canonical operator-learning benchmark).

The paper argues (Sec. VII) that foundational surrogate models "should at
the minimum replicate canonical test cases of fluid dynamics"; Burgers
is the canonical 1-D case (and the original FNO paper's first benchmark).

    u_t + u u_x = ν u_xx,   periodic on [0, L)

Pseudo-spectral in the conservative form ``(u²/2)_x``, 2/3 dealiased,
integrating-factor RK4 in time — the 1-D sibling of
:class:`repro.ns.SpectralNSSolver2D`.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as _fft

from ..utils.rng import as_generator

__all__ = ["BurgersSolver1D", "random_initial_condition_1d"]


class BurgersSolver1D:
    """Periodic viscous Burgers integrator."""

    def __init__(
        self,
        n: int,
        viscosity: float,
        length: float = 2.0 * np.pi,
        dt: float | None = None,
        dealias: bool = True,
    ):
        if n < 4:
            raise ValueError("grid too small")
        if viscosity <= 0:
            raise ValueError("viscosity must be positive")
        self.n = int(n)
        self.viscosity = float(viscosity)
        self.length = float(length)
        self.dt = dt
        self.time = 0.0
        self._k = 2.0 * np.pi / length * np.fft.rfftfreq(n, d=1.0 / n)
        k_cut = (2.0 / 3.0) * (np.pi / (length / n))
        self._mask = (np.abs(self._k) < k_cut).astype(float) if dealias else np.ones_like(self._k)
        self._u_hat = np.zeros(n // 2 + 1, dtype=complex)

    # ------------------------------------------------------------------
    @property
    def u(self) -> np.ndarray:
        return _fft.irfft(self._u_hat, n=self.n)

    def set_state(self, u: np.ndarray, reset_time: bool = False) -> None:
        u = np.asarray(u, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"expected shape {(self.n,)}, got {u.shape}")
        self._u_hat = _fft.rfft(u)
        if reset_time:
            self.time = 0.0

    # ------------------------------------------------------------------
    def _nonlinear(self, u_hat: np.ndarray) -> np.ndarray:
        u = _fft.irfft(u_hat, n=self.n)
        flux_hat = _fft.rfft(0.5 * u * u) * self._mask
        return -1j * self._k * flux_hat

    def stable_dt(self) -> float:
        umax = float(np.max(np.abs(self.u)))
        h = self.length / self.n
        return min(0.5 * h / max(umax, 1e-12), 0.2 * h * h / self.viscosity)

    def step(self) -> None:
        dt = self.dt if self.dt is not None else self.stable_dt()
        e_half = np.exp(-0.5 * self.viscosity * self._k**2 * dt)
        e_full = e_half * e_half
        u = self._u_hat
        k1 = self._nonlinear(u)
        k2 = self._nonlinear(e_half * (u + 0.5 * dt * k1))
        k3 = self._nonlinear(e_half * u + 0.5 * dt * k2)
        k4 = self._nonlinear(e_full * u + dt * e_half * k3)
        self._u_hat = e_full * u + (dt / 6.0) * (e_full * k1 + 2.0 * e_half * (k2 + k3) + k4)
        self.time += dt

    def advance(self, duration: float) -> None:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        target = self.time + duration
        while self.time < target - 1e-12:
            dt = self.dt if self.dt is not None else self.stable_dt()
            saved = self.dt
            self.dt = min(dt, target - self.time)
            try:
                self.step()
            finally:
                self.dt = saved

    def energy(self) -> float:
        """Mean energy ``0.5 <u²>`` (monotonically decaying for Burgers)."""
        u = self.u
        return float(0.5 * np.mean(u * u))


def random_initial_condition_1d(
    n: int,
    rng=None,
    k_max: int = 8,
    u0: float = 1.0,
    length: float = 2.0 * np.pi,
) -> np.ndarray:
    """Smooth random periodic initial condition with RMS amplitude ``u0``.

    A superposition of the lowest ``k_max`` Fourier modes with random
    amplitudes ~ 1/k and random phases (the distribution used by the
    original FNO Burgers benchmark, qualitatively).
    """
    rng = as_generator(rng)
    x = np.arange(n) * length / n
    u = np.zeros(n)
    for k in range(1, k_max + 1):
        amp = rng.standard_normal() / k
        phase = rng.uniform(0.0, 2.0 * np.pi)
        u += amp * np.sin(2.0 * np.pi * k * x / length + phase)
    rms = float(np.sqrt(np.mean(u * u)))
    return u * (u0 / max(rms, 1e-30))
