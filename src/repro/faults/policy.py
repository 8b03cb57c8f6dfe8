"""Retry/backoff, circuit breaking, and divergence guards.

The policy layer is the *defensive* half of :mod:`repro.faults`: where
:mod:`~repro.faults.injection` makes subsystems fail on purpose, these
primitives are what the subsystems wrap around I/O and inference so the
failures stay contained.  Everything is deterministic given its seed or
injected clock, so the chaos harness and the property tests can assert
exact delay sequences and state transitions.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RetryPolicy",
    "call_with_retry",
    "CircuitOpenError",
    "CircuitBreaker",
    "RolloutDiverged",
    "DivergenceGuard",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    ``delays()`` is a pure function of the policy, so a given
    ``(attempts, backoff, factor, jitter, seed)`` tuple always produces
    the same sleep sequence — tests pin it exactly.
    """

    attempts: int = 3
    backoff: float = 0.05
    factor: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.0
    seed: int = 0
    retry_on: tuple = (Exception,)

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must be in [0, 1]")

    def delays(self) -> list[float]:
        """Sleep between attempt i and i+1, for i in [0, attempts-1)."""
        rng = np.random.default_rng(self.seed)
        out = []
        for i in range(self.attempts - 1):
            delay = min(self.backoff * self.factor**i, self.max_backoff)
            if self.jitter:
                delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            out.append(delay)
        return out


def _count_retry(label: str) -> None:
    from .. import obs

    obs.metrics_registry().counter(
        "faults_retries_total", labels={"site": label}
    ).inc()


def call_with_retry(fn, *args, policy: RetryPolicy | None = None,
                    sleep=time.sleep, label: str = "", **kwargs):
    """Call ``fn`` under ``policy``; re-raise the last error when exhausted.

    Only exceptions matching ``policy.retry_on`` are retried; everything
    else propagates immediately.

    A retried exception may carry a ``retry_after`` attribute — the
    server-supplied backoff hint of :class:`CircuitOpenError`, a 503's
    ``Retry-After`` header, or a draining replica.  The pause before the
    next attempt is raised to that hint (never lowered below the
    policy's own schedule) and capped by ``policy.max_backoff``, so a
    retrying client backs off *with* the breaker on the other side
    instead of hammering it at the policy's base cadence.
    """
    policy = policy or RetryPolicy()
    delays = policy.delays()
    for attempt in range(policy.attempts):
        try:
            return fn(*args, **kwargs)
        except policy.retry_on as exc:
            if attempt == policy.attempts - 1:
                raise
            _count_retry(label or getattr(fn, "__name__", "call"))
            pause = delays[attempt]
            hint = getattr(exc, "retry_after", None)
            if hint is not None:
                try:
                    pause = min(max(pause, float(hint)), policy.max_backoff)
                except (TypeError, ValueError):  # repro: ignore[RPR005] -- malformed server hint: keep the policy's own schedule
                    pass
            sleep(pause)
    raise AssertionError("unreachable")  # attempts >= 1 guarantees return/raise


class CircuitOpenError(RuntimeError):
    """The breaker is open — fail fast instead of hammering a sick dependency."""

    def __init__(self, name: str, retry_after: float):
        super().__init__(
            f"circuit {name!r} is open; retry in {max(retry_after, 0.0):.2f}s"
        )
        self.name = name
        self.retry_after = max(retry_after, 0.0)


_STATE_CODES = {"closed": 0.0, "open": 1.0, "half_open": 2.0}


class CircuitBreaker:
    """Classic closed → open → half-open breaker, deterministic via ``clock``.

    ``failure_threshold`` consecutive failures trip it open; after
    ``reset_timeout`` it admits up to ``half_open_max`` probe calls; one
    success closes it, one failure re-opens.  State transitions are
    exported to the obs metrics registry (``circuit_state`` gauge,
    ``circuit_open_total`` counter) so chaos runs can assert on them.
    """

    def __init__(self, failure_threshold: int = 5, reset_timeout: float = 30.0,
                 half_open_max: int = 1, name: str = "circuit",
                 clock=time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = float(reset_timeout)
        self.half_open_max = half_open_max
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._half_open_inflight = 0
        self._opens = 0
        self._rejected = 0
        self._export_state()

    # -- internal, caller holds the lock or is __init__ -----------------
    def _export_state(self) -> None:
        from .. import obs

        obs.metrics_registry().gauge(
            "circuit_state", labels={"name": self.name}
        ).set(_STATE_CODES[self._state])

    def _trip_open(self) -> None:
        from .. import obs

        self._state = "open"
        self._opened_at = self._clock()
        self._opens += 1
        self._export_state()
        obs.metrics_registry().counter(
            "circuit_open_total", labels={"name": self.name}
        ).inc()

    # -------------------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        if (self._state == "open"
                and self._clock() - self._opened_at >= self.reset_timeout):
            self._state = "half_open"
            self._half_open_inflight = 0
            self._export_state()

    def allow(self) -> bool:
        """Non-raising admission check; counts half-open probe slots."""
        with self._lock:
            self._maybe_half_open()
            if self._state == "closed":
                return True
            if self._state == "half_open":
                if self._half_open_inflight < self.half_open_max:
                    self._half_open_inflight += 1
                    return True
            self._rejected += 1
            return False

    def admit(self) -> None:
        """Raising admission check, with a ``retry_after`` hint for clients."""
        with self._lock:
            self._maybe_half_open()
            if self._state == "closed":
                return
            if (self._state == "half_open"
                    and self._half_open_inflight < self.half_open_max):
                self._half_open_inflight += 1
                return
            self._rejected += 1
            if self._state == "half_open":
                retry_after = self.reset_timeout
            else:
                retry_after = self.reset_timeout - (self._clock() - self._opened_at)
            raise CircuitOpenError(self.name, retry_after)

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._state != "closed":
                self._state = "closed"
                self._half_open_inflight = 0
                self._export_state()

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open()
            self._failures += 1
            if self._state == "half_open" or (
                    self._state == "closed"
                    and self._failures >= self.failure_threshold):
                self._trip_open()

    def snapshot(self) -> dict:
        with self._lock:
            self._maybe_half_open()
            return {
                "name": self.name,
                "state": self._state,
                "failures": self._failures,
                "opens": self._opens,
                "rejected": self._rejected,
            }


class RolloutDiverged(RuntimeError):
    """An autoregressive roll-out produced non-finite or blown-up fields."""

    def __init__(self, step: int, reason: str):
        super().__init__(f"rollout diverged at step {step}: {reason}")
        self.step = step
        self.reason = reason


@dataclass(frozen=True)
class DivergenceGuard:
    """Cheap sanity checks on roll-out outputs.

    ``diagnose`` returns ``None`` for a healthy field, else a short
    reason string.  The energy check compares the mean-square of the
    prediction against ``max_energy_ratio`` times a baseline mean-square
    (typically the input window's) — turbulent decay only ever shrinks
    it, so a large growth factor means the surrogate left the attractor.
    """

    max_energy_ratio: float = 1e3
    check_finite: bool = True

    def diagnose(self, arr, baseline_ms: float | None = None) -> str | None:
        arr = np.asarray(arr)
        if self.check_finite and not np.all(np.isfinite(arr)):
            return "non-finite values"
        if baseline_ms is not None and baseline_ms > 0.0:
            ms = float(np.mean(np.square(arr)))
            if ms > self.max_energy_ratio * baseline_ms:
                return (f"energy blow-up: mean-square {ms:.3e} exceeds "
                        f"{self.max_energy_ratio:g}x baseline {baseline_ms:.3e}")
        return None
