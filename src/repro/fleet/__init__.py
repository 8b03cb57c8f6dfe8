"""Supervised multi-replica serving: coordinator, gateway, deploys.

The fleet layer turns the single-process :mod:`repro.serve` service
into an operable unit of N supervised replicas behind one endpoint:

* :class:`HashRing` — consistent hashing of request keys to replicas
  (minimal remapping when a replica is ejected or added).
* :class:`HealthPolicy`/:class:`FleetHealth` — a min-lattice health
  score per replica (reachability, breaker + trust-breaker state,
  trust EWMA, queue pressure) feeding one
  :class:`~repro.faults.CircuitBreaker` per replica for admission.
* :class:`ReplicaSpec`/:class:`ReplicaProcess` — one serve replica as
  a child process with announce/heartbeat/graceful-drain hooks.
* :class:`Coordinator` — spawns and supervises the replicas: restart
  budgets with exponential backoff, heartbeat stall detection, and
  pause/replace hooks for deploys.
* :class:`GatewayRouter`/:class:`Gateway` — the HTTP front door:
  consistent-hash routing over admitted replicas, in-attempt failover,
  Retry-After honoring retries, and an exactly-once
  :class:`RequestJournal`.
* :func:`rolling_deploy` — manifest-gated rolling deploys with canary
  probation and auto-rollback.

``repro fleet up|status|deploy`` is the CLI; the ``replica_kill`` and
``bad_deploy`` chaos scenarios exercise the whole stack end-to-end.
"""

from .coordinator import Coordinator
from .deploy import DeployError, probe_replica, rolling_deploy
from .gateway import (
    Gateway,
    GatewayRouter,
    ReplicaUnavailable,
    RequestJournal,
    http_transport,
)
from .hashring import HashRing
from .health import FleetHealth, HealthPolicy, ReplicaHealth
from .replica import ReplicaProcess, ReplicaSpec

__all__ = [
    "HashRing",
    "HealthPolicy", "ReplicaHealth", "FleetHealth",
    "ReplicaSpec", "ReplicaProcess",
    "Coordinator",
    "ReplicaUnavailable", "RequestJournal", "GatewayRouter", "Gateway",
    "http_transport",
    "DeployError", "probe_replica", "rolling_deploy",
]
