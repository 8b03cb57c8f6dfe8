"""Per-prediction physics diagnostics for 2-D incompressible flow.

The paper's failure analysis (Fig. 8/9) shows pure-FNO roll-outs leave
the divergence-free manifold and drift off the attractor long before
anything becomes non-finite.  These diagnostics make that drift a
*measured quantity on every prediction*:

* :func:`rms_divergence` — ``‖∇·u‖_rms``; exactly zero for the solver
  (it integrates vorticity), nonzero for raw FNO output.
* :func:`pde_residual_norm` — the Navier–Stokes residual
  ``R(v) = f − ∂t v − (v·∇)v + νΔv`` evaluated in vorticity form
  (``R(ω) = f_ω − ∂t ω − (u·∇)ω + νΔω``), which is the curl of the
  velocity-form residual and therefore pressure-free — the same trick
  the solver itself uses.  ``∂t`` is a finite difference between
  consecutive snapshots; spatial terms are spectral at the midpoint.
* :func:`spectrum_drift` — relative L1 distance between radial energy
  spectra; the spectral-bias failure mode (high-``k`` deficit) shows up
  here first.

Everything is computed **at the prediction's native dtype and grid**
(``scipy.fft`` preserves float32, unlike ``np.fft``) — resampling or
upcasting before diagnosing would hide exactly the numerics being
checked, which is what the RPR011 rule enforces statically.  Whether
serving computes them at all is the service's :class:`TrustPolicy`
(``repro serve --trust``): without one, no diagnostic runs.
"""

from __future__ import annotations

import threading

import numpy as np

# scipy's pocketfft preserves single precision (np.fft promotes to
# complex128) — the repo-wide transform policy (RPR001).
from scipy import fft as _fft

from ..ns.fields import derivative_wavenumbers, wavenumbers
from ..tensor.fft_ops import half_spectrum_weights

__all__ = [
    "rms_divergence",
    "radial_energy_spectrum",
    "spectrum_drift",
    "pde_residual_norm",
    "diagnose_prediction",
]

_lock = threading.Lock()
_TINY = 1e-30


# ---------------------------------------------------------------------------
# spectral multipliers, cached per (n, length, dtype)
# ---------------------------------------------------------------------------

_MULTIPLIER_CACHE: dict = {}


def _multipliers(n: int, length: float, dtype) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(kx, ky, k2)`` first-derivative multipliers at the field's dtype.

    Nyquist lines are zeroed (the derivative convention of
    :mod:`repro.ns.fields`), and the meshes are materialised once per
    ``(n, length, dtype)`` so repeated diagnostics are allocation-light.
    """
    key = (int(n), round(float(length), 12), np.dtype(dtype).str)
    cached = _MULTIPLIER_CACHE.get(key)
    if cached is not None:
        return cached
    kx, ky = derivative_wavenumbers(n, length)
    real = np.dtype(dtype)
    kx = kx.astype(real)
    ky = ky.astype(real)
    k2 = kx * kx + ky * ky
    with _lock:
        _MULTIPLIER_CACHE[key] = (kx, ky, k2)
    return kx, ky, k2


def _dealias_mask(n: int, length: float, dtype) -> np.ndarray:
    """2/3-rule mask over rfft2 coefficients, cached per ``(n, length, dtype)``.

    Identical to the spectral solver's: the pseudo-spectral product
    ``u·∇ω`` aliases above ⅔ Nyquist, and on marginally-resolved grids
    that aliasing error dwarfs the true residual — the governing
    dynamics the diagnostic compares against are the *dealiased* ones.
    """
    key = ("mask", int(n), round(float(length), 12), np.dtype(dtype).str)
    cached = _MULTIPLIER_CACHE.get(key)
    if cached is not None:
        return cached
    kx, ky, _ = wavenumbers(n, length)
    k_cut = (2.0 / 3.0) * (np.pi / (length / n))
    mask = ((np.abs(kx) < k_cut) & (np.abs(ky) < k_cut)).astype(np.dtype(dtype))
    with _lock:
        _MULTIPLIER_CACHE[key] = mask
    return mask


def _real_dtype(arr: np.ndarray) -> np.dtype:
    dt = np.dtype(arr.dtype)
    return dt if dt in (np.dtype(np.float32), np.dtype(np.float64)) else np.dtype(np.float64)


def _curl(u: np.ndarray, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
    """Spectral vorticity of one ``(2, n, n)`` snapshot, dtype-preserving."""
    s = u.shape[-2:]
    ux_hat = _fft.rfft2(u[0])
    uy_hat = _fft.rfft2(u[1])
    return _fft.irfft2(1j * kx * uy_hat - 1j * ky * ux_hat, s=s)


def rms_divergence(u: np.ndarray, length: float = 2.0 * np.pi) -> float:
    """``sqrt(<(∇·u)²>)`` of one velocity snapshot ``(2, n, n)``, spectral.

    Computed at ``u``'s native dtype: a float32 prediction is diagnosed
    with float32 transforms, so the reported divergence is the one the
    serving path actually produced, not a double-precision idealisation.
    """
    u = np.asarray(u)
    if u.ndim != 3 or u.shape[0] != 2:
        raise ValueError(f"expected velocity (2, n, n), got {u.shape}")
    n = u.shape[-1]
    kx, ky, _ = _multipliers(n, length, _real_dtype(u))
    div = _fft.irfft2(
        1j * kx * _fft.rfft2(u[0]) + 1j * ky * _fft.rfft2(u[1]), s=u.shape[-2:]
    )
    return float(np.sqrt(np.mean(np.square(div))))


# ---------------------------------------------------------------------------
# radial spectra
# ---------------------------------------------------------------------------

_SHELL_CACHE: dict = {}


def _shell_index(n: int, length: float) -> tuple[np.ndarray, int]:
    """Flattened rfft2-coefficient → shell assignment, cached per grid."""
    key = (int(n), round(float(length), 12))
    cached = _SHELL_CACHE.get(key)
    if cached is not None:
        return cached
    k_mag = np.sqrt(wavenumbers(n, length)[2])
    k_unit = 2.0 * np.pi / length
    idx = np.rint(k_mag / k_unit).astype(np.int64).ravel()
    n_shells = n // 2 + 1
    idx = np.minimum(idx, n_shells - 1)
    with _lock:
        _SHELL_CACHE[key] = (idx, n_shells)
    return idx, n_shells


def radial_energy_spectrum(u: np.ndarray, length: float = 2.0 * np.pi) -> np.ndarray:
    """Shell-binned kinetic-energy spectrum ``E(k)`` of ``(2, n, n)`` velocity.

    A ``bincount`` shell sum (O(n²), allocation-light) rather than the
    per-shell masking loop of :mod:`repro.analysis.spectra` — this runs
    on the serving hot path.  ``Σ_k E(k) ≈ ½⟨|u|²⟩`` (Parseval).
    """
    u = np.asarray(u)
    n = u.shape[-1]
    real = _real_dtype(u)
    u_hat = _fft.rfft2(u[0]) / (n * n)
    v_hat = _fft.rfft2(u[1]) / (n * n)
    dens = 0.5 * (np.abs(u_hat) ** 2 + np.abs(v_hat) ** 2) * half_spectrum_weights(n, real)
    idx, n_shells = _shell_index(n, length)
    return np.bincount(idx, weights=dens.ravel().astype(np.float64), minlength=n_shells)


def spectrum_drift(u: np.ndarray, u_ref: np.ndarray, length: float = 2.0 * np.pi) -> float:
    """Relative L1 distance between the radial energy spectra of two snapshots.

    ``Σ_k |E(k) − E_ref(k)| / Σ_k E_ref(k)`` — zero for identical
    fields, O(1) once the prediction's spectral shape has left the
    reference's.  Both spectra are computed at their fields' native
    dtype and on the full native grid.
    """
    e = radial_energy_spectrum(u, length)
    e_ref = radial_energy_spectrum(u_ref, length)
    return float(np.sum(np.abs(e - e_ref)) / (np.sum(e_ref) + _TINY))


# ---------------------------------------------------------------------------
# PDE residual
# ---------------------------------------------------------------------------


def pde_residual_norm(
    u_prev: np.ndarray,
    u_curr: np.ndarray,
    dt: float,
    viscosity: float,
    length: float = 2.0 * np.pi,
    forcing: np.ndarray | None = None,
) -> float:
    """Relative Navier–Stokes residual between two consecutive snapshots.

    Evaluates ``R(ω) = f_ω − ∂t ω − (u·∇)ω + νΔω`` — the curl of the
    velocity-form residual ``R(v) = f − ∂t v − (v·∇)v + νΔv``, which
    eliminates the pressure gradient exactly (the solver state is
    vorticity for the same reason).  ``∂t ω`` is the two-point finite
    difference over ``dt`` (physical units); the advective and viscous
    terms are spectral at the temporal midpoint, with the advective
    product dealiased by the same 2/3 rule the spectral solver applies
    (the governing dynamics are the dealiased ones; raw-product aliasing
    would otherwise dominate on marginally-resolved grids).  A
    trajectory that actually solves the PDE scores O(dt²) while an
    arbitrary field pair scores O(1).

    Returns ``‖R‖_rms`` normalised by the largest term magnitude, so the
    value is scale-free: ~0 means "these snapshots are a solution",
    ~1 means "the dynamics connecting them are not Navier–Stokes".
    ``forcing`` is the vorticity-space forcing field ``f_ω`` (zero for
    the paper's decaying scenario).
    """
    u_prev = np.asarray(u_prev)
    u_curr = np.asarray(u_curr)
    if u_prev.shape != u_curr.shape or u_prev.ndim != 3 or u_prev.shape[0] != 2:
        raise ValueError(
            f"expected matching velocity snapshots (2, n, n), got "
            f"{u_prev.shape} and {u_curr.shape}"
        )
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    n = u_prev.shape[-1]
    s = u_prev.shape[-2:]
    kx, ky, k2 = _multipliers(n, length, _real_dtype(u_curr))

    w_prev = _curl(u_prev, kx, ky)
    w_curr = _curl(u_curr, kx, ky)
    dwdt = (w_curr - w_prev) / dt

    u_mid = 0.5 * (u_prev + u_curr)
    w_mid_hat = _fft.rfft2(0.5 * (w_prev + w_curr))
    wx = _fft.irfft2(1j * kx * w_mid_hat, s=s)
    wy = _fft.irfft2(1j * ky * w_mid_hat, s=s)
    mask = _dealias_mask(n, length, _real_dtype(u_curr))
    advection = _fft.irfft2(
        mask * _fft.rfft2(u_mid[0] * wx + u_mid[1] * wy), s=s
    )
    diffusion = viscosity * _fft.irfft2(-k2 * w_mid_hat, s=s)

    residual = -dwdt - advection + diffusion
    if forcing is not None:
        residual = residual + np.asarray(forcing)
    scale = max(
        float(np.sqrt(np.mean(np.square(dwdt)))),
        float(np.sqrt(np.mean(np.square(advection)))),
        float(np.sqrt(np.mean(np.square(diffusion)))),
        _TINY,
    )
    return float(np.sqrt(np.mean(np.square(residual))) / scale)


# ---------------------------------------------------------------------------
# the per-prediction bundle
# ---------------------------------------------------------------------------


def diagnose_prediction(
    window: np.ndarray,
    prediction: np.ndarray,
    dt: float,
    viscosity: float,
    length: float = 2.0 * np.pi,
) -> dict:
    """All three diagnostics for one prediction, as a JSON-ready dict.

    ``window`` is the model input ``(n_in, 2, n, n)`` and ``prediction``
    the produced snapshots ``(S, 2, n, n)``, both in physical units at
    serving dtype.  Diagnostics anchor on the *newest* state: divergence
    of the final snapshot, residual across the final snapshot interval,
    spectrum drift of the final snapshot relative to the newest input —
    the quantities that decide whether the rollout should continue.

    Non-finite predictions short-circuit with infinite diagnostics —
    every downstream trust score collapses to 0.
    """
    window = np.asarray(window)
    prediction = np.asarray(prediction)
    if prediction.ndim != 4 or prediction.shape[1] != 2:
        raise ValueError(f"expected prediction (S, 2, n, n), got {prediction.shape}")
    base = {
        "dtype": str(prediction.dtype),
        "grid": int(prediction.shape[-1]),
    }
    if not bool(np.all(np.isfinite(prediction))):
        inf = float("inf")
        return {
            "finite": False,
            "rms_divergence": inf,
            "pde_residual": inf,
            "spectrum_drift": inf,
            **base,
        }
    newest = prediction[-1]
    previous = prediction[-2] if prediction.shape[0] >= 2 else window[-1]
    return {
        "finite": True,
        "rms_divergence": rms_divergence(newest, length),
        "pde_residual": pde_residual_norm(previous, newest, dt, viscosity, length),
        "spectrum_drift": spectrum_drift(newest, window[-1], length),
        **base,
    }
