"""Field transformations for 2-D periodic incompressible flow.

Conventions (used throughout the repo):

* Domain ``[0, L)^2``, uniform ``n × n`` grid, arrays indexed ``[x, y]``.
* Velocity ``u = (u_x, u_y)`` stored as an array of shape ``(2, n, n)``.
* Scalar vorticity ``ω = ∂u_y/∂x − ∂u_x/∂y``.
* Streamfunction ``ψ`` with ``u_x = ∂ψ/∂y``, ``u_y = −∂ψ/∂x`` and
  ``∇²ψ = −ω``.

All derivatives here are spectral (exact for band-limited fields); the
finite-difference solver keeps its own stencils.
"""

from __future__ import annotations

import numpy as np
import scipy.fft as _fft

__all__ = [
    "wavenumbers",
    "derivative_wavenumbers",
    "velocity_from_vorticity",
    "vorticity_from_velocity",
    "streamfunction_from_vorticity",
    "divergence",
    "kinetic_energy",
    "enstrophy",
    "palinstrophy",
    "rms_velocity",
]


def wavenumbers(n: int, length: float = 2.0 * np.pi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(kx, ky, k2)`` meshes for an ``n × n`` periodic grid.

    ``kx``/``ky`` have shape ``(n, n//2+1)`` matching ``rfft2`` layout;
    ``k2 = kx² + ky²`` with the zero mode left at 0.
    """
    k1 = 2.0 * np.pi / length * np.fft.fftfreq(n, d=1.0 / n)
    k2_half = 2.0 * np.pi / length * np.fft.rfftfreq(n, d=1.0 / n)
    kx = k1[:, None] * np.ones((1, k2_half.size))
    ky = np.ones((n, 1)) * k2_half[None, :]
    return kx, ky, kx * kx + ky * ky


def irfft2(a_hat: np.ndarray, n: int) -> np.ndarray:
    """Inverse of a float64 ``rfft2`` onto an ``n × n`` grid, in ``np.fft``'s bits.

    ``scipy.fft.irfft2`` scales by ``1/n²`` once, ``np.fft.irfft2`` by
    ``1/n`` per axis; the two round differently unless ``n`` is a power
    of two.  One axis at a time keeps numpy's rounding at every ``n``.
    """
    return _fft.irfft(_fft.ifft(a_hat, axis=-2), n=n, axis=-1, overwrite_x=True)


def derivative_wavenumbers(n: int, length: float = 2.0 * np.pi) -> tuple[np.ndarray, np.ndarray]:
    """``(kx, ky)`` for *first-derivative* multipliers, Nyquist zeroed.

    The spectral derivative of a real signal is ill-defined at the
    Nyquist frequency (its Fourier coefficient has no conjugate partner
    in the half-spectrum storage); the standard convention sets the
    multiplier to zero there, which keeps ``curl ∘ biot_savart`` an exact
    identity on band-limited fields.
    """
    kx, ky, _ = wavenumbers(n, length)
    kx = kx.copy()
    ky = ky.copy()
    if n % 2 == 0:
        # Zero *both* multipliers on *both* Nyquist lines: any derivative
        # then produces a field with no Nyquist energy at all, which makes
        # curl ∘ biot_savart an exact identity and the solenoidal
        # projection exactly idempotent.
        for k in (kx, ky):
            k[n // 2, :] = 0.0
            k[:, -1] = 0.0
    return kx, ky


def streamfunction_from_vorticity(omega: np.ndarray, length: float = 2.0 * np.pi) -> np.ndarray:
    """Solve ``∇²ψ = −ω`` spectrally (zero-mean ψ)."""
    n = omega.shape[-1]
    _, _, k2 = wavenumbers(n, length)
    w_hat = _fft.rfft2(omega)
    with np.errstate(divide="ignore", invalid="ignore"):
        psi_hat = np.where(k2 > 0, w_hat / k2, 0.0)
    return irfft2(psi_hat, n)


def velocity_from_vorticity(omega: np.ndarray, length: float = 2.0 * np.pi) -> np.ndarray:
    """Recover the solenoidal velocity ``(2, n, n)`` from vorticity."""
    n = omega.shape[-1]
    _, _, k2 = wavenumbers(n, length)
    kx, ky = derivative_wavenumbers(n, length)
    w_hat = _fft.rfft2(omega)
    with np.errstate(divide="ignore", invalid="ignore"):
        psi_hat = np.where(k2 > 0, w_hat / k2, 0.0)
    ux = irfft2(1j * ky * psi_hat, n)
    uy = irfft2(-1j * kx * psi_hat, n)
    return np.stack([ux, uy])


def vorticity_from_velocity(u: np.ndarray, length: float = 2.0 * np.pi) -> np.ndarray:
    """Spectral curl: ``ω = ∂u_y/∂x − ∂u_x/∂y`` for ``u`` of shape (2, n, n)."""
    n = u.shape[-1]
    kx, ky = derivative_wavenumbers(n, length)
    ux_hat = _fft.rfft2(u[0])
    uy_hat = _fft.rfft2(u[1])
    return irfft2(1j * kx * uy_hat - 1j * ky * ux_hat, n)


def divergence(u: np.ndarray, length: float = 2.0 * np.pi) -> np.ndarray:
    """Spectral divergence ``∂u_x/∂x + ∂u_y/∂y`` for ``u`` of shape (2, n, n)."""
    n = u.shape[-1]
    kx, ky = derivative_wavenumbers(n, length)
    ux_hat = _fft.rfft2(u[0])
    uy_hat = _fft.rfft2(u[1])
    return irfft2(1j * kx * ux_hat + 1j * ky * uy_hat, n)


def kinetic_energy(u: np.ndarray) -> float:
    """Volume-mean kinetic energy ``0.5 <|u|²>``."""
    return float(0.5 * np.mean(u[0] ** 2 + u[1] ** 2))


def enstrophy(omega: np.ndarray) -> float:
    """Volume-mean enstrophy ``0.5 <ω²>``."""
    return float(0.5 * np.mean(omega**2))


def palinstrophy(omega: np.ndarray, length: float = 2.0 * np.pi) -> float:
    """Volume-mean palinstrophy ``0.5 <|∇ω|²>`` (spectral gradient)."""
    n = omega.shape[-1]
    kx, ky = derivative_wavenumbers(n, length)
    w_hat = _fft.rfft2(omega)
    gx = irfft2(1j * kx * w_hat, n)
    gy = irfft2(1j * ky * w_hat, n)
    return float(0.5 * np.mean(gx**2 + gy**2))


def rms_velocity(u: np.ndarray) -> float:
    """Root-mean-square speed, the characteristic velocity ``U0``."""
    return float(np.sqrt(np.mean(u[0] ** 2 + u[1] ** 2)))
