"""repro.parallel: pool semantics, the obs relay, and the bitwise
determinism contract — shard outputs must be identical for any worker
count (and to the serial in-process baseline)."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.data import DataGenConfig, generate_dataset
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import load_trace
from repro.parallel import (
    ProcessPool,
    RemoteTaskError,
    WorkerCrashed,
    available_cores,
    default_workers,
    parallel_map,
    task_seeds,
)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _traced_task(x):
    obs.metric_counter("probe_tasks")
    with obs.span("probe.inner", x=x):
        return x + 1


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------


class TestProcessPool:
    def test_map_preserves_submission_order(self):
        with ProcessPool(2) as pool:
            assert pool.map(_square, [3, 1, 2, 5]) == [9, 1, 4, 25]
            stats = pool.stats()
        assert stats["tasks_done"] == 4 and stats["restarts"] == 0

    def test_remote_errors_are_typed_and_carry_tracebacks(self):
        with ProcessPool(1) as pool:
            with pytest.raises(RemoteTaskError) as excinfo:
                pool.map(_boom, [7])
        assert excinfo.value.exc_type == "ValueError"
        assert "boom 7" in str(excinfo.value)
        assert "ValueError" in excinfo.value.remote_tb

    def test_closures_and_lambdas_are_rejected(self):
        def local(x):
            return x

        with ProcessPool(1) as pool:
            with pytest.raises(ValueError, match="module-level"):
                pool.submit(lambda x: x, 1)
            with pytest.raises(ValueError, match="module-level"):
                pool.submit(local, 1)

    def test_killed_workers_restart_and_lose_nothing(self):
        # Each child incarnation is SIGKILLed on its second task (the
        # REPRO_FAULTS contract reaches pool children like any process),
        # so the map only finishes if orphaned tasks are resubmitted.
        env = {
            "REPRO_FAULTS": json.dumps(
                {"seed": 0,
                 "faults": [{"site": "parallel.worker.task",
                             "kind": "kill", "at": 2}]}
            )
        }
        items = list(range(6))
        with ProcessPool(2, env=env, max_restarts=16) as pool:
            assert pool.map(_square, items) == [x * x for x in items]
            assert pool.restarts >= 1

    def test_restart_budget_exhaustion_fails_typed(self):
        env = {
            "REPRO_FAULTS": json.dumps(
                {"seed": 0,
                 "faults": [{"site": "parallel.worker.task", "kind": "kill"}]}
            )
        }
        with ProcessPool(1, env=env, max_restarts=1) as pool:
            with pytest.raises(WorkerCrashed, match="restart budget"):
                pool.map(_square, [3])

    def test_submit_after_close_rejected(self):
        pool = ProcessPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(_square, 1)


class TestParallelMap:
    def test_serial_preserves_order(self):
        assert parallel_map(_square, [3, 1, 2], n_workers=1) == [9, 1, 4]

    def test_parallel_matches_serial(self):
        items = list(range(8))
        assert parallel_map(_square, items, n_workers=2) == [x * x for x in items]

    def test_empty(self):
        assert parallel_map(_square, [], n_workers=4) == []

    def test_single_item_runs_inline(self):
        assert parallel_map(_square, [7], n_workers=8) == [49]

    def test_lambda_works_serially(self):
        assert parallel_map(lambda x: x + 1, [1, 2], n_workers=1) == [2, 3]

    def test_existing_pool_is_reused(self):
        with ProcessPool(2) as pool:
            assert parallel_map(_square, [1, 2, 3], pool=pool) == [1, 4, 9]
            assert pool.stats()["tasks_done"] == 3

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_cores_follow_the_affinity_mask(self, monkeypatch):
        from repro.parallel import maps

        monkeypatch.setattr(maps.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(maps.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert available_cores() == 3 and default_workers() == 2
        monkeypatch.delattr(maps.os, "sched_getaffinity")
        assert available_cores() == 8 and default_workers() == 7

    def test_task_seeds_reproducible_and_distinct(self):
        a = task_seeds(7, 5)
        b = task_seeds(7, 5)
        assert a == b and len(set(a)) == 5
        assert task_seeds(8, 5) != a


class TestObsRelay:
    def test_worker_spans_and_counters_reach_the_parent(self, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        registry = MetricsRegistry()
        obs.configure(trace_path=trace_path, registry=registry)
        try:
            assert parallel_map(_traced_task, [1, 2, 3, 4], n_workers=2) == [2, 3, 4, 5]
        finally:
            obs.shutdown()
        spans = [r for r in load_trace(trace_path) if r["type"] == "span"]
        by_id = {r["id"]: r for r in spans}
        inner = [r for r in spans if r["name"] == "probe.inner"]
        assert len(inner) == 4
        for record in inner:
            parent = by_id.get(record["parent"])
            assert parent is not None and parent["name"] == "parallel.task"
        relayed = [instrument.value
                   for name, kind, labels, instrument in registry.collect()
                   if name == "probe_tasks" and "proc_worker" in dict(labels)]
        assert sum(relayed) == 4


# ---------------------------------------------------------------------------
# determinism-by-sharding: the contract the pool rests on
# ---------------------------------------------------------------------------

_DATAGEN = DataGenConfig(
    n=16, reynolds=400.0, n_samples=3, warmup=0.05, duration=0.1,
    sample_interval=0.02, solver="spectral", ic="band", seed=11,
)


def _sample_digest(samples) -> list[tuple]:
    return [
        (s.sample_id, s.vorticity.tobytes(), s.velocity.tobytes(),
         s.times.tobytes(), s.reynolds)
        for s in samples
    ]


class TestDeterminismBySharding:
    def test_datagen_identical_across_worker_counts(self):
        reference = _sample_digest(generate_dataset(_DATAGEN, n_workers=1))
        for n_workers in (2, 4):
            assert _sample_digest(
                generate_dataset(_DATAGEN, n_workers=n_workers)
            ) == reference
