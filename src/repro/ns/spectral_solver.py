"""Pseudo-spectral solver for 2-D decaying turbulence.

Integrates the vorticity equation in Fourier space with the nonlinear
term evaluated pseudo-spectrally (2/3-rule dealiased) and the viscous
term handled exactly through an integrating factor:

    d/dt (e^{νk²t} ω̂) = −e^{νk²t} N(ω̂),   N = FFT(u·∇ω)

Time stepping is classic RK4 on the transformed variable ("IFRK4"), or
plain RK4 on the stiff form when ``scheme="rk4"``.  This is the workhorse
solver: it generates reference trajectories for the Lyapunov analysis and
acts as one of the PDE partners of the hybrid FNO–PDE scheme.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as _fft

from .base import NSSolverBase
from .fields import irfft2, wavenumbers

__all__ = ["SpectralNSSolver2D"]


class SpectralNSSolver2D(NSSolverBase):
    """Pseudo-spectral vorticity–streamfunction integrator.

    Parameters
    ----------
    n, viscosity, length, dt:
        See :class:`NSSolverBase`.
    scheme:
        ``"ifrk4"`` (integrating factor, default) or ``"rk4"``.
    dealias:
        Apply the 2/3-rule mask to the nonlinear term (default True).
        Exposed so the dealiasing ablation benchmark can switch it off.
    """

    def __init__(
        self,
        n: int,
        viscosity: float,
        length: float = 2.0 * np.pi,
        dt: float | None = None,
        scheme: str = "ifrk4",
        dealias: bool = True,
        forcing=None,
    ):
        super().__init__(n, viscosity, length, dt)
        if scheme not in ("ifrk4", "rk4"):
            raise ValueError(f"unknown scheme {scheme!r}")
        self.scheme = scheme
        self.dealias = bool(dealias)
        self.forcing = forcing
        self._kx, self._ky, self._k2 = wavenumbers(n, length)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._inv_k2 = np.where(self._k2 > 0, 1.0 / np.where(self._k2 > 0, self._k2, 1.0), 0.0)
        k_cut = (2.0 / 3.0) * (np.pi / (length / n))  # 2/3 of the Nyquist wavenumber
        self._mask = ((np.abs(self._kx) < k_cut) & (np.abs(self._ky) < k_cut)).astype(float)
        self._omega_hat = np.zeros((n, n // 2 + 1), dtype=complex)

    # ------------------------------------------------------------------
    def _on_state_change(self) -> None:
        self._omega_hat = _fft.rfft2(self._omega)

    def _sync_real(self) -> None:
        self._omega = irfft2(self._omega_hat, self.n)

    # ------------------------------------------------------------------
    def _nonlinear(self, w_hat: np.ndarray) -> np.ndarray:
        """−FFT(u·∇ω) + FFT(f_ω), dealiased advection plus forcing."""
        psi_hat = w_hat * self._inv_k2
        ux = irfft2(1j * self._ky * psi_hat, self.n)
        uy = irfft2(-1j * self._kx * psi_hat, self.n)
        wx = irfft2(1j * self._kx * w_hat, self.n)
        wy = irfft2(1j * self._ky * w_hat, self.n)
        adv_hat = _fft.rfft2(ux * wx + uy * wy)
        if self.dealias:
            adv_hat *= self._mask
        tendency = -adv_hat
        if self.forcing is not None:
            omega = irfft2(w_hat, self.n)
            tendency = tendency + _fft.rfft2(self.forcing(omega, self.time))
        return tendency

    def _rhs(self, w_hat: np.ndarray) -> np.ndarray:
        return self._nonlinear(w_hat) - self.viscosity * self._k2 * w_hat

    # ------------------------------------------------------------------
    def step(self) -> None:
        dt = self.dt if self.dt is not None else self.stable_dt()
        w = self._omega_hat
        if self.scheme == "rk4":
            k1 = self._rhs(w)
            k2 = self._rhs(w + 0.5 * dt * k1)
            k3 = self._rhs(w + 0.5 * dt * k2)
            k4 = self._rhs(w + dt * k3)
            self._omega_hat = w + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        else:
            # Integrating-factor RK4: exact viscous decay, RK4 advection.
            e_half = np.exp(-0.5 * self.viscosity * self._k2 * dt)
            e_full = e_half * e_half
            k1 = self._nonlinear(w)
            k2 = self._nonlinear(e_half * (w + 0.5 * dt * k1))
            k3 = self._nonlinear(e_half * w + 0.5 * dt * k2)
            k4 = self._nonlinear(e_full * w + dt * e_half * k3)
            self._omega_hat = e_full * w + (dt / 6.0) * (
                e_full * k1 + 2.0 * e_half * (k2 + k3) + k4
            )
        self.time += dt
        self._sync_real()
