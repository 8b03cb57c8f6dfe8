"""Finite-difference solver for 2-D decaying turbulence.

Plays the role of the paper's finite-difference Navier–Stokes partner
(the PR-DNS C++ code): the hybrid scheme trains the FNO on lattice
Boltzmann data but couples it to *this* solver, exercising the paper's
cross-solver generalisation claim.

Discretisation:

* Advection: Arakawa's energy- and enstrophy-conserving Jacobian
  (second order, periodic).
* Diffusion: 5-point Laplacian.
* Poisson solve ``∇²ψ = −ω``: FFT inversion of the *discrete* 5-point
  Laplacian, keeping the scheme self-consistent.
* Time: three-stage strong-stability-preserving Runge–Kutta (SSP-RK3).
"""

from __future__ import annotations

import numpy as np

from .base import NSSolverBase

__all__ = ["FDNSSolver2D"]


def _neighbours(f: np.ndarray) -> tuple[np.ndarray, ...]:
    """Periodic neighbours ``(E, W, N, S, NE, NW, SE, SW)`` of ``f``.

    All eight are slices of one wrap-padded copy; E/W step along axis 0
    and N/S along axis 1 (``E[i, j] = f[i+1, j]``, ``N[i, j] = f[i, j+1]``).
    """
    P = np.pad(f, 1, mode="wrap")
    return (P[2:, 1:-1], P[:-2, 1:-1], P[1:-1, 2:], P[1:-1, :-2],
            P[2:, 2:], P[:-2, 2:], P[2:, :-2], P[:-2, :-2])


def _arakawa_jacobian(p: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """Arakawa (1966) discrete Jacobian ``J(p, w) = p_x w_y − p_y w_x``."""
    pE, pW, pN, pS, pNE, pNW, pSE, pSW = _neighbours(p)
    wE, wW, wN, wS, wNE, wNW, wSE, wSW = _neighbours(w)

    j1 = (pE - pW) * (wN - wS) - (pN - pS) * (wE - wW)
    j2 = pE * (wNE - wSE) - pW * (wNW - wSW) - pN * (wNE - wNW) + pS * (wSE - wSW)
    j3 = wN * (pNE - pNW) - wS * (pSE - pSW) - wE * (pNE - pSE) + wW * (pNW - pSW)
    return (j1 + j2 + j3) / (12.0 * h * h)


def _laplacian(f: np.ndarray, h: float) -> np.ndarray:
    """Periodic 5-point Laplacian."""
    P = np.pad(f, 1, mode="wrap")
    return (P[2:, 1:-1] + P[:-2, 1:-1] + P[1:-1, 2:] + P[1:-1, :-2] - 4.0 * f) / (h * h)


class FDNSSolver2D(NSSolverBase):
    """Finite-difference vorticity–streamfunction integrator (SSP-RK3)."""

    def __init__(
        self,
        n: int,
        viscosity: float,
        length: float = 2.0 * np.pi,
        dt: float | None = None,
        forcing=None,
    ):
        super().__init__(n, viscosity, length, dt)
        self.forcing = forcing
        self.h = self.length / self.n
        # Eigenvalues of the discrete 5-point Laplacian under the DFT.
        k1 = np.fft.fftfreq(n, d=1.0 / n)
        k2 = np.fft.rfftfreq(n, d=1.0 / n)
        lam_x = (2.0 * np.cos(2.0 * np.pi * k1 / n) - 2.0) / (self.h * self.h)
        lam_y = (2.0 * np.cos(2.0 * np.pi * k2 / n) - 2.0) / (self.h * self.h)
        lam = lam_x[:, None] + lam_y[None, :]
        lam[0, 0] = 1.0  # zero mode handled explicitly
        self._inv_lam = 1.0 / lam
        self._inv_lam[0, 0] = 0.0

    # ------------------------------------------------------------------
    def streamfunction(self, omega: np.ndarray | None = None) -> np.ndarray:
        """Solve the discrete Poisson problem ``∇²_h ψ = −ω``."""
        w = self._omega if omega is None else omega
        psi_hat = -np.fft.rfft2(w) * self._inv_lam
        return np.fft.irfft2(psi_hat, s=(self.n, self.n))

    @property
    def velocity(self) -> np.ndarray:
        """Velocity from central differences of the streamfunction."""
        P = np.pad(self.streamfunction(), 1, mode="wrap")
        ux = (P[1:-1, 2:] - P[1:-1, :-2]) / (2.0 * self.h)
        uy = -(P[2:, 1:-1] - P[:-2, 1:-1]) / (2.0 * self.h)
        return np.stack([ux, uy])

    # ------------------------------------------------------------------
    def _rhs(self, w: np.ndarray) -> np.ndarray:
        psi = self.streamfunction(w)
        rhs = _arakawa_jacobian(psi, w, self.h) + self.viscosity * _laplacian(w, self.h)
        if self.forcing is not None:
            rhs = rhs + self.forcing(w, self.time)
        return rhs

    def step(self) -> None:
        dt = self.dt if self.dt is not None else self.stable_dt()
        w = self._omega
        w1 = w + dt * self._rhs(w)
        w2 = 0.75 * w + 0.25 * (w1 + dt * self._rhs(w1))
        self._omega = (w + 2.0 * (w2 + dt * self._rhs(w2))) / 3.0
        self.time += dt
