"""Fan-out helpers: ordered parallel map and the seeded-shard contract.

:func:`parallel_map` is the drop-in successor of the old
``repro.utils.parallel`` shim — same signature shape, same serial
fallback for ``n_workers <= 1`` — but backed by :class:`ProcessPool`,
which adds crash recovery, fault-site injection, and obs relay.

:func:`task_seeds` is the single home of the determinism-by-sharding
contract used by data generation and calibration: the parent
derives one integer seed per task from the root seed (via
``SeedSequence.spawn``), tasks carry their seed with them, and results
are keyed by task index.  Nothing about worker count, scheduling, or
restarts can then reach the numbers — a pool map is bitwise-identical
to its serial loop.
"""

from __future__ import annotations

import os

import numpy as np

from .pool import ProcessPool

__all__ = ["parallel_map", "available_cores", "default_workers", "task_seeds"]


def available_cores() -> int:
    """Cores this process may run on: its CPU affinity mask where the OS
    has one, else ``os.cpu_count()``."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_workers() -> int:
    """A sensible worker count: available cores minus one, min 1."""
    return max(1, available_cores() - 1)


def task_seeds(seed: int, n: int) -> list[int]:
    """``n`` independent integer seeds derived from ``seed``.

    This reproduces the historical per-sample stream derivation
    (``SeedSequence(seed).spawn(n)`` collapsed to ints) byte for byte,
    so datasets generated before ``repro.parallel`` existed are still
    regenerated identically.
    """
    spawned = np.random.SeedSequence(seed).spawn(int(n))
    return [int(np.random.default_rng(s).integers(0, 2**63)) for s in spawned]


def parallel_map(fn, items, n_workers: int | None = None,
                 pool: ProcessPool | None = None) -> list:
    """Apply ``fn`` to every item, preserving input order.

    ``n_workers=None`` uses :func:`default_workers`; ``n_workers <= 1``
    (or a single item) runs serially in-process — no spawn cost, no
    picklability requirement beyond what the items already carry.  With
    more workers, ``fn`` must be a module-level function (the pool ships
    it by dotted name, not by pickle).  An existing ``pool`` can be
    passed to amortise worker startup across several maps.
    """
    items = list(items)
    if pool is not None:
        return pool.map(fn, items)
    if n_workers is None:
        n_workers = default_workers()
    if n_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPool(min(n_workers, len(items))) as owned:
        return owned.map(fn, items)
