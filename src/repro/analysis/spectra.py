"""Radial (isotropic) energy spectra for 2-D turbulence.

Used by the spectral-bias diagnostics: pure-ML emulators fail at small
scales first, which shows up as a deficit in the high-``k`` tail of
``E(k)`` long before global quantities drift.
"""

from __future__ import annotations

import numpy as np

# scipy's pocketfft preserves single precision (np.fft promotes to
# complex128) — the repo-wide transform policy (RPR001).
from scipy import fft as _fft

from ..ns.fields import wavenumbers
from ..tensor.fft_ops import half_spectrum_weights

__all__ = ["energy_spectrum", "enstrophy_spectrum"]


def _radial_bins(n: int, length: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    kx, ky, k2 = wavenumbers(n, length)
    k_mag = np.sqrt(k2)
    k_unit = 2.0 * np.pi / length
    bins = np.arange(0.5, n // 2 + 1) * k_unit
    idx = np.digitize(k_mag.ravel(), bins)
    return k_mag, bins, idx


def energy_spectrum(velocity: np.ndarray, length: float = 2.0 * np.pi) -> tuple[np.ndarray, np.ndarray]:
    """Shell-summed kinetic energy spectrum from ``(2, n, n)`` velocity.

    Returns ``(k, E)`` where ``k`` are shell-centre wavenumbers and
    ``Σ_k E(k) ≈ ½⟨|u|²⟩`` (Parseval with mean normalisation).
    """
    n = velocity.shape[-1]
    u_hat = _fft.rfft2(velocity[0]) / (n * n)
    v_hat = _fft.rfft2(velocity[1]) / (n * n)
    dens = 0.5 * (np.abs(u_hat) ** 2 + np.abs(v_hat) ** 2) * half_spectrum_weights(n)
    return _shell_sum(dens, n, length)


def enstrophy_spectrum(omega: np.ndarray, length: float = 2.0 * np.pi) -> tuple[np.ndarray, np.ndarray]:
    """Shell-summed enstrophy spectrum from ``(n, n)`` vorticity."""
    n = omega.shape[-1]
    w_hat = _fft.rfft2(omega) / (n * n)
    dens = 0.5 * np.abs(w_hat) ** 2 * half_spectrum_weights(n)
    return _shell_sum(dens, n, length)


def _shell_sum(density: np.ndarray, n: int, length: float) -> tuple[np.ndarray, np.ndarray]:
    k_mag, bins, idx = _radial_bins(n, length)
    n_shells = bins.size
    spectrum = np.zeros(n_shells)
    flat = density.ravel()
    for shell in range(n_shells):
        spectrum[shell] = flat[idx == shell].sum()
    k_unit = 2.0 * np.pi / length
    k_centres = np.arange(n_shells) * k_unit
    # Shell 0 is the mean mode; drop it (no dynamics there).
    return k_centres[1:], spectrum[1:]
