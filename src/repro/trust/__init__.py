"""repro.trust — per-request uncertainty and physics guardrails.

The serving-path answer to the paper's failure analysis: pure-FNO
roll-outs leave the divergence-free manifold and drift off the attractor
*silently*.  This package makes every prediction announce its own
trustworthiness:

* :mod:`~repro.trust.diagnostics` — divergence norm, Navier–Stokes
  residual, and energy-spectrum drift per prediction, at the
  prediction's native dtype/grid; a service computes them only when it
  holds a :class:`TrustPolicy` (``repro serve --trust``).
* :mod:`~repro.trust.uq` — seeded input-perturbation ensembles whose
  spread is bitwise-reproducible at any worker count
  (``repro.parallel`` task-seed streams + batch-invariant kernels).
* :mod:`~repro.trust.projection` — optional spectral divergence-free
  (Leray) post-processing of served predictions.
* :mod:`~repro.trust.policy` — the trust-score meet-semilattice,
  :class:`TrustGuard` for hybrid/rollout fallback on *predicted*
  untrustworthiness, and the per-record serving assessment.
* :mod:`~repro.trust.calibrate` / ``repro trust`` CLI — offline
  threshold calibration against held-out trajectories.
"""

from .diagnostics import (
    diagnose_prediction,
    pde_residual_norm,
    radial_energy_spectrum,
    rms_divergence,
    spectrum_drift,
)
from .policy import TrustGuard, TrustPolicy, TrustReport, assess_prediction
from .projection import project_velocity
from .uq import ensemble_uq, member_windows

__all__ = [
    "diagnose_prediction",
    "pde_residual_norm",
    "radial_energy_spectrum",
    "rms_divergence",
    "spectrum_drift",
    "TrustGuard",
    "TrustPolicy",
    "TrustReport",
    "assess_prediction",
    "project_velocity",
    "ensemble_uq",
    "member_windows",
]
