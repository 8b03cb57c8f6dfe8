"""Trust-score policy: diagnostics + uncertainty → a single serving decision.

The policy is a meet-semilattice over component scores.  Each diagnostic
``value`` with threshold ``t`` maps to ``s = 1 / (1 + value / t)`` —
monotone decreasing, ``s = 1`` for a perfect field, exactly ``s = 0.5``
at the calibrated threshold, ``s → 0`` as the diagnostic blows up (an
infinite diagnostic collapses to 0).  The overall trust score is the
*meet* (minimum) of the components: a prediction is only as trustworthy
as its worst physics property.  ``trusted ⟺ score ≥ min_score``, so with
the default ``min_score = 0.5`` "trusted" means "every component is
under its calibrated threshold" — the lattice formulation just also
yields a graded score for dashboards and breaker hysteresis.

:class:`TrustPolicy` is a frozen dataclass of plain floats/ints so it
pickles into the process-serve payload unchanged, and
:class:`TrustGuard` plugs the same thresholds into the rollout/hybrid
``guard`` slot so the *existing* fallback machinery fires on predicted
untrustworthiness (reason strings prefixed ``"trust:"`` for journal
provenance), not just on NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ..faults.policy import DivergenceGuard
from .diagnostics import diagnose_prediction, rms_divergence
from .projection import project_velocity
from .uq import ensemble_uq

__all__ = ["TrustPolicy", "TrustReport", "TrustGuard", "assess_prediction"]

# Components the lattice can see, in reporting order.
_COMPONENTS = (
    ("rms_divergence", "max_rms_divergence"),
    ("pde_residual", "max_pde_residual"),
    ("spectrum_drift", "max_spectrum_drift"),
    ("relative_spread", "max_relative_spread"),
)


def _component_score(value: float, threshold: float) -> float:
    if not math.isfinite(value):
        return 0.0
    if value <= 0.0:
        return 1.0
    return 1.0 / (1.0 + value / threshold)


@dataclass(frozen=True)
class TrustReport:
    """Outcome of assessing one prediction against a :class:`TrustPolicy`."""

    score: float
    trusted: bool
    components: dict = field(default_factory=dict)
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "score": self.score,
            "trusted": self.trusted,
            "components": dict(self.components),
            "reason": self.reason,
        }


@dataclass(frozen=True)
class TrustPolicy:
    """Thresholds, ensemble parameters, and enforcement switches.

    Thresholds are the ``s = 0.5`` calibration points — set them from
    ``repro trust`` offline calibration (a quantile of the healthy-model
    distribution times a safety margin).  ``enforce=False`` (default)
    attaches reports to every response but never changes serving
    behaviour; ``enforce=True`` additionally arms :class:`TrustGuard`
    inside hybrid/rollout windows and lets an open trust breaker force
    ``fno`` requests onto the ``hybrid`` path.
    """

    max_rms_divergence: float = 0.5
    max_pde_residual: float = 2.0
    max_spectrum_drift: float = 1.0
    max_relative_spread: float = 0.5
    min_score: float = 0.5
    members: int = 3
    sigma: float = 0.01
    seed: int = 0
    project: bool = False
    enforce: bool = False
    breaker_failures: int = 5
    breaker_reset_s: float = 5.0

    def __post_init__(self):
        for name in ("max_rms_divergence", "max_pde_residual",
                     "max_spectrum_drift", "max_relative_spread"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.min_score <= 1.0:
            raise ValueError("min_score must be in [0, 1]")
        if self.members < 1:
            raise ValueError("members must be >= 1")

    # -- lattice ---------------------------------------------------------

    def component_scores(self, diagnostics: dict | None,
                         uncertainty: dict | None = None) -> dict:
        """Per-component scores for every metric present in the inputs."""
        values: dict = {}
        if diagnostics:
            values.update(diagnostics)
        if uncertainty:
            values["relative_spread"] = uncertainty.get("relative_spread")
        scores = {}
        for metric, threshold_name in _COMPONENTS:
            value = values.get(metric)
            if value is None:
                continue
            scores[metric] = _component_score(float(value), getattr(self, threshold_name))
        if diagnostics is not None and not diagnostics.get("finite", True):
            scores["finite"] = 0.0
        return scores

    def assess(self, diagnostics: dict | None,
               uncertainty: dict | None = None) -> TrustReport:
        """Meet over component scores; worst component names the reason."""
        components = self.component_scores(diagnostics, uncertainty)
        if not components:
            return TrustReport(score=1.0, trusted=True, components={})
        worst_metric = min(components, key=components.get)
        score = components[worst_metric]
        trusted = score >= self.min_score
        reason = None if trusted else f"trust: {worst_metric} score {score:.3f} below {self.min_score:g}"
        return TrustReport(score=score, trusted=trusted,
                           components=components, reason=reason)

    # -- serialisation (CLI calibration files, /stats) -------------------

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict) -> "TrustPolicy":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})

    def with_thresholds(self, thresholds: dict) -> "TrustPolicy":
        known = {f.name for f in fields(self)}
        return replace(self, **{k: v for k, v in thresholds.items() if k in known})


@dataclass(frozen=True)
class TrustGuard(DivergenceGuard):
    """A :class:`DivergenceGuard` that also rejects physics violations.

    Drop-in for the ``guard`` parameter of ``run_hybrid_batched`` /
    ``rollout_channels``: after the base finiteness and energy checks it
    measures rms divergence on the newest snapshot of the block — the
    one diagnostic that needs no temporal reference — at the block's
    native dtype.  Rejection reasons are prefixed ``"trust:"`` so the
    journal (``hybrid.fallback`` events) and the
    ``rollout_trust_fallbacks_total`` counter record *why* the PDE took
    over.  Blocks arrive channels-major ``(..., S·n_fields, n, n)``;
    with ``n_fields == 2`` the trailing channel pair is the newest
    ``(u_x, u_y)`` snapshot.
    """

    policy: TrustPolicy = field(default_factory=TrustPolicy)
    length: float = 2.0 * np.pi
    n_fields: int = 2

    def diagnose(self, arr, baseline_ms: float | None = None) -> str | None:
        reason = super().diagnose(arr, baseline_ms)
        if reason is not None:
            return reason
        if self.n_fields != 2:
            return None
        arr = np.asarray(arr)
        if arr.ndim < 3 or arr.shape[-3] % 2 != 0:
            return None
        n = arr.shape[-1]
        newest = arr.reshape(-1, 2, n, n)[-1]
        div = rms_divergence(newest, self.length)
        if div > self.policy.max_rms_divergence:
            return (f"trust: rms divergence {div:.3e} exceeds "
                    f"{self.policy.max_rms_divergence:g}")
        return None


def assess_prediction(
    model,
    window: np.ndarray,
    velocity: np.ndarray,
    n_init: int,
    dt: float,
    viscosity: float,
    policy: TrustPolicy,
    normalizer=None,
    length: float = 2.0 * np.pi,
) -> tuple[dict | None, np.ndarray]:
    """Full per-request trust bundle for one serving record.

    ``window`` is the model input ``(n_in, 2, n, n)``; ``velocity`` the
    response trajectory whose first ``n_init`` snapshots are the echoed
    initial condition.  Returns ``(bundle, velocity)`` where ``bundle``
    holds ``diagnostics`` / ``uncertainty`` / ``trust`` dicts (``None``
    when the record predicted no velocity snapshots), and ``velocity``
    is the possibly projected trajectory: when
    ``policy.project`` is set, predicted snapshots are Leray-projected
    *after* diagnosis so the report still sees the raw divergence.
    """
    velocity = np.asarray(velocity)
    predicted = velocity[n_init:]
    if predicted.shape[0] == 0 or predicted.shape[1] != 2:
        return None, velocity
    diagnostics = diagnose_prediction(window, predicted, dt, viscosity, length)
    uncertainty = None
    if policy.members >= 2 and bool(np.all(np.isfinite(window))):
        uncertainty = ensemble_uq(
            model, window, policy.members, policy.sigma, policy.seed, normalizer
        )
    report = policy.assess(diagnostics, uncertainty)
    if policy.project and diagnostics.get("finite", False):
        velocity = np.concatenate(
            [velocity[:n_init], project_velocity(predicted, length)], axis=0
        )
    bundle = {
        "diagnostics": diagnostics,
        "uncertainty": uncertainty,
        "trust": report.to_dict(),
    }
    return bundle, velocity
