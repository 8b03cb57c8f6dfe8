"""repro.faults — deterministic fault injection and resilience policies.

Two halves:

* :mod:`repro.faults.injection` — seeded :class:`FaultPlan`\\ s that make
  named sites (``checkpoint.write``, ``data.write_shard``,
  ``serve.worker.infer``, ``rollout.step``, ``parallel.worker.task``)
  raise, stall, tear a write, or poison a payload with NaN —
  deterministically, and at zero cost when no plan is installed
  (``REPRO_FAULTS`` unset).
* :mod:`repro.faults.policy` — :class:`RetryPolicy` (seeded backoff)
  with :func:`call_with_retry`, :class:`CircuitBreaker`, and the
  :class:`DivergenceGuard` / :class:`RolloutDiverged` pair that roll-out
  and hybrid drivers use for graceful degradation.

The chaos harness lives in :mod:`repro.faults.chaos` (kept out of this
namespace because it imports the subsystems under test; use
``repro chaos`` or import the submodule explicitly).
"""

# NOTE: injection.ACTIVE is deliberately NOT re-exported — a ``from``
# import would freeze the bool at import time.  Call sites read the live
# flag as ``injection.ACTIVE`` (see core.rollout / serve.service).
from . import injection
from .injection import (
    KINDS,
    KNOWN_SITES,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    InjectedIOError,
    active,
    configure_from_env,
    current_plan,
    fire,
    fire_value,
    install,
    uninstall,
)
from .policy import (
    CircuitBreaker,
    CircuitOpenError,
    DivergenceGuard,
    RetryPolicy,
    RolloutDiverged,
    call_with_retry,
)

__all__ = [
    "injection",
    "KINDS",
    "KNOWN_SITES",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedIOError",
    "active",
    "configure_from_env",
    "current_plan",
    "fire",
    "fire_value",
    "install",
    "uninstall",
    "CircuitBreaker",
    "CircuitOpenError",
    "DivergenceGuard",
    "RetryPolicy",
    "RolloutDiverged",
    "call_with_retry",
]
