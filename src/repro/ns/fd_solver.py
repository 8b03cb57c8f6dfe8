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

The step works in a workspace the solver owns: wrap-padded ``(n+2)²``
buffers for ψ and ω whose halos are slice copies, two scratch planes
for the Jacobian and Laplacian, and the RK stage buffers.  Every stencil
and stage writes with ``out=`` in the operation order of the textbook
expressions, so the result is bit-identical to the allocating form.  ψ
of the current state is solved once and cached under a state counter;
:meth:`FDNSSolver2D.stable_dt`, the first RK stage and
:meth:`FDNSSolver2D.velocity` all read it.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as _fft

from .base import NSSolverBase
from .fields import irfft2

__all__ = ["FDNSSolver2D"]


def _wrap(f: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Write ``f`` into the interior of ``P`` and its periodic one-cell halo."""
    P[1:-1, 1:-1] = f
    P[0, 1:-1] = f[-1]
    P[-1, 1:-1] = f[0]
    P[:, 0] = P[:, -2]
    P[:, -1] = P[:, 1]
    return P


def _padded(f: np.ndarray) -> np.ndarray:
    return _wrap(f, np.empty((f.shape[0] + 2, f.shape[1] + 2), dtype=f.dtype))


def _neighbours(P: np.ndarray) -> tuple[np.ndarray, ...]:
    """Periodic neighbours ``(E, W, N, S, NE, NW, SE, SW)`` as views of ``P``.

    ``P`` is a wrap-padded field; E/W step along axis 0 and N/S along
    axis 1 (``E[i, j] = f[i+1, j]``, ``N[i, j] = f[i, j+1]``).
    """
    return (P[2:, 1:-1], P[:-2, 1:-1], P[1:-1, 2:], P[1:-1, :-2],
            P[2:, 2:], P[:-2, 2:], P[2:, :-2], P[:-2, :-2])


def _jacobian_into(p, w, h: float, out: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Arakawa Jacobian of the neighbour tuples ``p``, ``w`` into ``out``.

    ``b`` and ``c`` are scratch planes.  Evaluates
    ``(j1 + j2 + j3) / (12 h²)`` term by term, left to right.
    """
    pE, pW, pN, pS, pNE, pNW, pSE, pSW = p
    wE, wW, wN, wS, wNE, wNW, wSE, wSW = w
    # j1 = (pE - pW) * (wN - wS) - (pN - pS) * (wE - wW)
    np.subtract(pE, pW, out=out)
    out *= np.subtract(wN, wS, out=b)
    np.subtract(pN, pS, out=b)
    b *= np.subtract(wE, wW, out=c)
    out -= b
    # j2 = pE * (wNE - wSE) - pW * (wNW - wSW) - pN * (wNE - wNW) + pS * (wSE - wSW)
    np.multiply(pE, np.subtract(wNE, wSE, out=b), out=b)
    np.multiply(pW, np.subtract(wNW, wSW, out=c), out=c)
    b -= c
    np.multiply(pN, np.subtract(wNE, wNW, out=c), out=c)
    b -= c
    np.multiply(pS, np.subtract(wSE, wSW, out=c), out=c)
    b += c
    out += b
    # j3 = wN * (pNE - pNW) - wS * (pSE - pSW) - wE * (pNE - pSE) + wW * (pNW - pSW)
    np.multiply(wN, np.subtract(pNE, pNW, out=b), out=b)
    np.multiply(wS, np.subtract(pSE, pSW, out=c), out=c)
    b -= c
    np.multiply(wE, np.subtract(pNE, pSE, out=c), out=c)
    b -= c
    np.multiply(wW, np.subtract(pNW, pSW, out=c), out=c)
    b += c
    out += b
    out /= 12.0 * h * h
    return out


def _laplacian_into(P: np.ndarray, h: float, out: np.ndarray, c: np.ndarray) -> np.ndarray:
    """5-point Laplacian of the wrap-padded ``P`` into ``out`` (``c`` is scratch)."""
    np.add(P[2:, 1:-1], P[:-2, 1:-1], out=out)
    out += P[1:-1, 2:]
    out += P[1:-1, :-2]
    out -= np.multiply(P[1:-1, 1:-1], 4.0, out=c)
    out /= h * h
    return out


def _arakawa_jacobian(p: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """Arakawa (1966) discrete Jacobian ``J(p, w) = p_x w_y − p_y w_x``."""
    out, b, c = np.empty((3,) + p.shape, dtype=np.result_type(p, w))
    return _jacobian_into(_neighbours(_padded(p)), _neighbours(_padded(w)), h, out, b, c)


def _laplacian(f: np.ndarray, h: float) -> np.ndarray:
    """Periodic 5-point Laplacian."""
    out, c = np.empty((2,) + f.shape, dtype=f.dtype)
    return _laplacian_into(_padded(f), h, out, c)


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
        # Workspace: padded ψ and ω, Jacobian scratch, SSP-RK3 stages.
        self._psi_pad = np.zeros((n + 2, n + 2))
        self._omega_pad = np.zeros((n + 2, n + 2))
        self._psi_nb = _neighbours(self._psi_pad)
        self._omega_nb = _neighbours(self._omega_pad)
        self._scratch = np.empty((2, n, n))
        self._stages = [np.empty((n, n)) for _ in range(3)]
        # ``_psi_pad`` holds ψ of the state numbered ``_psi_state``; every
        # change of ω bumps ``_state``.
        self._state = 0
        self._psi_state = -1

    def _on_state_change(self) -> None:
        self._state += 1

    # ------------------------------------------------------------------
    def _poisson(self, w: np.ndarray) -> np.ndarray:
        psi_hat = _fft.rfft2(w)
        np.negative(psi_hat, out=psi_hat)
        psi_hat *= self._inv_lam
        return irfft2(psi_hat, self.n)

    def _state_psi(self) -> np.ndarray:
        """The padded ψ of the current state, solved at most once per state."""
        if self._psi_state != self._state:
            _wrap(self._poisson(self._omega), self._psi_pad)
            self._psi_state = self._state
        return self._psi_pad

    def streamfunction(self, omega: np.ndarray | None = None) -> np.ndarray:
        """Solve the discrete Poisson problem ``∇²_h ψ = −ω``."""
        if omega is None:
            return self._state_psi()[1:-1, 1:-1].copy()
        return self._poisson(omega)

    @property
    def velocity(self) -> np.ndarray:
        """Velocity from central differences of the streamfunction."""
        P = self._state_psi()
        u = np.empty((2, self.n, self.n))
        ux, uy = u
        np.subtract(P[1:-1, 2:], P[1:-1, :-2], out=ux)
        ux /= 2.0 * self.h
        np.subtract(P[2:, 1:-1], P[:-2, 1:-1], out=uy)
        np.negative(uy, out=uy)
        uy /= 2.0 * self.h
        return u

    def stable_dt(self) -> float:
        """:meth:`NSSolverBase.stable_dt` without building the velocity.

        ``max|u| = max|Δψ| / (2h)`` exactly: correctly rounded division
        by a positive constant is monotone, and negation is exact.
        """
        P = self._state_psi()
        a, b = self._scratch
        np.abs(np.subtract(P[1:-1, 2:], P[1:-1, :-2], out=a), out=a)
        np.abs(np.subtract(P[2:, 1:-1], P[:-2, 1:-1], out=b), out=b)
        umax = float(np.maximum(a, b, out=a).max()) / (2.0 * self.h)
        h = self.h
        adv = 0.5 * h / max(umax, 1e-12)
        visc = 0.2 * h * h / self.viscosity
        return min(adv, visc)

    # ------------------------------------------------------------------
    def _rhs_into(self, w: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``J(ψ, w) + ν ∇²w (+ forcing)`` into ``out``."""
        if w is self._omega:
            self._state_psi()
        else:
            _wrap(self._poisson(w), self._psi_pad)
            self._psi_state = -1
        _wrap(w, self._omega_pad)
        b, c = self._scratch
        _jacobian_into(self._psi_nb, self._omega_nb, self.h, out, b, c)
        out += np.multiply(_laplacian_into(self._omega_pad, self.h, b, c), self.viscosity, out=b)
        if self.forcing is not None:
            out += self.forcing(w, self.time)
        return out

    def step(self) -> None:
        dt = self.dt if self.dt is not None else self.stable_dt()
        w = self._omega
        w1, w2, r = self._stages  # r becomes the state; w the spare
        # w1 = w + dt * rhs(w)
        np.add(w, np.multiply(self._rhs_into(w, r), dt, out=r), out=w1)
        # w2 = 0.75 * w + 0.25 * (w1 + dt * rhs(w1))
        self._rhs_into(w1, r)
        r *= dt
        r += w1
        r *= 0.25
        np.multiply(w, 0.75, out=w2)
        w2 += r
        # w = (w + 2 * (w2 + dt * rhs(w2))) / 3
        self._rhs_into(w2, r)
        r *= dt
        r += w2
        r *= 2.0
        r += w
        r /= 3.0
        self._omega, self._stages[2] = r, w
        self.time += dt
        self._state += 1
