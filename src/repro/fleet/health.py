"""Per-replica health scoring: a min-lattice over /healthz observations.

The gateway polls each replica's ``/healthz`` (one cheap JSON document)
and folds it into a **health score lattice**, deliberately shaped like
:mod:`repro.trust`'s trust score: every component maps into ``[0, 1]``,
the overall score is the *meet* (minimum), and a poll is healthy iff
its score clears :data:`EJECT_BELOW`.  Components:

* ``reachable`` — 1 while polls succeed and are fresh, 0 on connection
  failure or staleness (a SIGKILLed replica scores 0 within one poll);
* ``admission`` — 0 while the replica reports ``draining``;
* ``breaker`` / ``trust_breaker`` — closed 1, half-open 0.5, open 0;
* ``trust`` — the replica's trust-score EWMA (1 when trust is off);
* ``queue`` — ``1 - depth/limit`` (a saturated queue scores 0).

Admission is one :class:`repro.faults.CircuitBreaker` per replica, the
same state machine a replica runs for its own workers: an unhealthy
poll or a failed request opens it (``closed → open``); after
``readmit_after_s`` it turns ``half_open`` and admits one probe
request, and one healthy poll or answered request closes it again.  A
success while the breaker is still open never readmits early.  The
breakers take :class:`FleetHealth`'s injectable clock, so the unit
tests pin every transition exactly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..faults.policy import CircuitBreaker

__all__ = ["EJECT_BELOW", "HealthPolicy", "ReplicaHealth", "FleetHealth"]

# A poll scoring below this opens the replica's breaker.
EJECT_BELOW = 0.5

_BREAKER_SCORES = {"closed": 1.0, "half_open": 0.5, "open": 0.0, None: 1.0}


@dataclass(frozen=True)
class HealthPolicy:
    """Staleness bound of the lattice and cooldown of the breaker."""

    stale_after_s: float = 3.0
    readmit_after_s: float = 1.0


class ReplicaHealth:
    """One replica's observed health and its admission breaker.

    Not thread-safe on its own — :class:`FleetHealth` serialises access.
    """

    def __init__(self, replica_id: str, policy: HealthPolicy,
                 clock=time.monotonic):
        self.replica_id = replica_id
        self.policy = policy
        self.payload: dict | None = None
        self.last_ok: float | None = None
        self.last_failure: float | None = None
        # Starts closed: route until proven sick.
        self.breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=policy.readmit_after_s,
            name=f"fleet.{replica_id}", clock=clock,
        )

    # -- lattice -------------------------------------------------------
    def components(self, now: float) -> dict:
        reachable = 1.0
        if self.last_ok is None:
            reachable = 0.0 if self.last_failure is not None else 1.0
        else:
            if self.last_failure is not None and self.last_failure >= self.last_ok:
                reachable = 0.0
            elif now - self.last_ok > self.policy.stale_after_s:
                reachable = 0.0
        out = {"reachable": reachable}
        payload = self.payload
        if payload is None:
            return out
        out["admission"] = 0.0 if payload.get("status") == "draining" else 1.0
        out["breaker"] = _BREAKER_SCORES.get(payload.get("breaker"), 0.0)
        out["trust_breaker"] = _BREAKER_SCORES.get(payload.get("trust_breaker"), 0.0)
        trust = payload.get("trust")
        ewma = trust.get("ewma") if isinstance(trust, dict) else None
        out["trust"] = 1.0 if ewma is None else min(max(float(ewma), 0.0), 1.0)
        limit = payload.get("queue_limit") or 0
        depth = payload.get("queue_depth") or 0
        out["queue"] = (
            max(0.0, 1.0 - float(depth) / float(limit)) if limit else 1.0
        )
        return out

    def score(self, now: float) -> float:
        return min(self.components(now).values())

    # -- breaker feedback ----------------------------------------------
    def _record(self, ok: bool) -> None:
        if not ok:
            self.breaker.record_failure()
        elif self.breaker.state != "open":
            # A success during the cooldown (a request admitted before
            # the ejection, a healthy poll) must not readmit early.
            self.breaker.record_success()

    def observe(self, payload: dict, now: float) -> None:
        """Fold a successful ``/healthz`` poll into the breaker."""
        self.payload = payload
        self.last_ok = now
        self._record(self.score(now) >= EJECT_BELOW)

    def record_result(self, ok: bool, now: float) -> None:
        """A failed poll (``ok=False``) or a routed request's outcome."""
        if not ok:
            self.last_failure = now
        self._record(ok)

    def snapshot(self, now: float) -> dict:
        components = self.components(now)
        breaker = self.breaker.snapshot()
        return {
            "replica_id": self.replica_id,
            "state": breaker["state"],
            "score": min(components.values()),
            "components": components,
            "ejections": breaker["opens"],
        }


class FleetHealth:
    """Thread-safe registry of :class:`ReplicaHealth` records."""

    def __init__(self, policy: HealthPolicy | None = None, clock=time.monotonic):
        self.policy = policy or HealthPolicy()
        self._clock = clock
        self._lock = threading.Lock()
        self._replicas: dict[str, ReplicaHealth] = {}

    def _ensure(self, replica_id: str) -> ReplicaHealth:
        record = self._replicas.get(replica_id)
        if record is None:
            record = ReplicaHealth(replica_id, self.policy, self._clock)
            self._replicas[replica_id] = record
        return record

    def add(self, replica_id: str) -> None:
        with self._lock:
            self._ensure(replica_id)

    def observe(self, replica_id: str, payload: dict) -> None:
        with self._lock:
            self._ensure(replica_id).observe(payload, self._clock())

    def observe_error(self, replica_id: str) -> None:
        """A failed poll: the replica is unreachable until proven live."""
        self.record_result(replica_id, False)

    def admit(self, replica_id: str) -> bool:
        """May the gateway route a request here right now?"""
        with self._lock:
            return self._ensure(replica_id).breaker.allow()

    def record_result(self, replica_id: str, ok: bool) -> None:
        """Gateway feedback after a routed request finished or failed."""
        with self._lock:
            self._ensure(replica_id).record_result(ok, self._clock())

    def state_of(self, replica_id: str) -> str:
        with self._lock:
            return self._ensure(replica_id).breaker.state

    def admitted_ids(self) -> list[str]:
        with self._lock:
            return sorted(
                rid for rid, record in self._replicas.items()
                if record.breaker.state == "closed"
            )

    def snapshot(self) -> dict:
        now = self._clock()
        with self._lock:
            return {
                rid: self._replicas[rid].snapshot(now)
                for rid in sorted(self._replicas)
            }
