"""Seeded arrival schedules and the open- and closed-loop load generators.

Open loop: requests are *due* on a seeded Poisson schedule whatever the
system does, and each request's latency runs from its due time to its
last response byte.  A stall therefore charges every request queued
behind it (no coordinated omission); how late the sender threads ran
behind the schedule is reported separately as generator lag, which
measures the benchmark's health rather than the system's.

Closed loop: ``n_clients`` callers each send their next request as soon
as the previous one returns, for a fixed duration.  Each caller's rate
is its completions divided by the time of its last completion, so the
capacity estimate has no end-of-window truncation error.

The serving workloads gate on one-at-a-time latency and two-client
capacity (:func:`run_latency_and_capacity`); the open loop feeds their
per-layer rows.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "OpRecord",
    "poisson_schedule",
    "percentile",
    "run_open_loop",
    "run_closed_loop",
    "run_latency_and_capacity",
]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, identical to ``np.percentile``'s default."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def poisson_schedule(rate: float, n: int, seed: int) -> np.ndarray:
    """Due times (s, from 0) of ``n`` Poisson arrivals at ``rate`` per second.

    Exponential gaps are drawn from ``seed`` and rescaled so the last
    arrival lands exactly at ``n / rate``: a Poisson process conditioned
    on its count, so every seed offers exactly the nominal load and seeds
    differ only in burstiness.
    """
    if rate <= 0 or n < 1:
        raise ValueError("need rate > 0 and n >= 1")
    gaps = np.random.default_rng(seed).exponential(1.0 / rate, size=n)
    return np.cumsum(gaps) * ((n / rate) / gaps.sum())


@dataclass
class OpRecord:
    """One operation as the client saw it (perf-counter seconds)."""

    index: int
    due: float
    start: float
    end: float
    ok: bool
    info: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.due

    @property
    def lag(self) -> float:
        return self.start - self.due


def _call(send, index: int) -> tuple[bool, dict]:
    """Run one operation; an exception is a failed operation, not a crash."""
    try:
        ok, info = send(index)
    except Exception as exc:  # a failed request must not kill its sender
        return False, {"error": f"{type(exc).__name__}: {exc}"}
    return bool(ok), info


def run_open_loop(send, schedule, n_senders: int = 2,
                  clock=time.perf_counter, sleep=time.sleep) -> list[OpRecord]:
    """Send request ``i`` at ``schedule[i]`` seconds after the start.

    ``send(index) -> (ok, info)`` performs one request and blocks until
    its last byte.  ``n_senders`` threads take requests in schedule
    order; when all of them are busy the next request goes out late, and
    its latency still counts from its due time.
    """
    schedule = [float(t) for t in schedule]
    records: list[OpRecord | None] = [None] * len(schedule)
    order = itertools.count()
    lock = threading.Lock()
    t0 = clock()

    def sender() -> None:
        while True:
            with lock:
                i = next(order)
            if i >= len(schedule):
                return
            due = t0 + schedule[i]
            wait = due - clock()
            if wait > 0:
                sleep(wait)
            start = clock()
            ok, info = _call(send, i)
            records[i] = OpRecord(i, due, start, clock(), ok, info)

    threads = [threading.Thread(target=sender, name=f"ledger-open-{k}")
               for k in range(n_senders)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [r for r in records if r is not None]


def run_closed_loop(send, duration: float, n_clients: int = 2, first_index: int = 0,
                    clock=time.perf_counter) -> tuple[list[OpRecord], float]:
    """``n_clients`` back-to-back callers for ``duration`` seconds.

    Returns the records and the capacity in operations per second: the
    sum over clients of successful completions divided by the time of
    that client's last completion.  Request indices continue from
    ``first_index``.
    """
    counter = itertools.count(first_index)
    lock = threading.Lock()
    per_client: list[list[OpRecord]] = [[] for _ in range(n_clients)]
    t0 = clock()
    deadline = t0 + duration

    def client(k: int) -> None:
        while clock() < deadline:
            with lock:
                i = next(counter)
            start = clock()
            ok, info = _call(send, i)
            per_client[k].append(OpRecord(i, start, start, clock(), ok, info))

    threads = [threading.Thread(target=client, args=(k,), name=f"ledger-closed-{k}")
               for k in range(n_clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    capacity = sum(sum(r.ok for r in recs) / (recs[-1].end - t0)
                   for recs in per_client if recs)
    records = sorted((r for recs in per_client for r in recs), key=lambda r: r.index)
    return records, capacity


def run_latency_and_capacity(send, seconds: float, latency_share: float = 0.6,
                             blocks: int = 4):
    """Alternate one-at-a-time requests with two back-to-back clients.

    ``blocks`` times: one client for ``latency_share · seconds / blocks``
    (its latencies carry no queueing and no schedule), then two clients
    for the rest of the block (capacity).  Both measurements thus sample
    the whole measured phase instead of one part of it each, which
    matters on a host whose speed drifts.  Returns ``(latency records,
    capacity records, capacity)``, the capacity being the mean over
    blocks; request indices are unique across blocks.
    """
    latency, loaded, capacities = [], [], []
    for _ in range(blocks):
        records, _ = run_closed_loop(send, seconds * latency_share / blocks, n_clients=1,
                                     first_index=len(latency) + len(loaded))
        latency += records
        records, capacity = run_closed_loop(send, seconds * (1 - latency_share) / blocks,
                                            n_clients=2, first_index=len(latency) + len(loaded))
        loaded += records
        capacities.append(capacity)
    return latency, loaded, float(np.mean(capacities))
