"""repro.parallel: shm lifecycle, pool semantics, and the bitwise
determinism contract — shard outputs and training runs must be identical
for any worker count (and to the serial in-process baseline)."""

from __future__ import annotations

import glob
import json
import os

import numpy as np
import pytest

from repro.core import Trainer, TrainingConfig
from repro.core.config import ChannelFNOConfig
from repro.core.models import build_model
from repro.data import DataGenConfig, generate_dataset
from repro.data.loader import DataLoader
from repro.parallel import (
    ParallelBatchLoader,
    ProcessPool,
    RemoteTaskError,
    ShmArena,
    ShmTensor,
    WorkerCrashed,
    current_worker_id,
    default_workers,
    parallel_map,
    task_seeds,
    worker_rng,
)


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _shm_names() -> set[str]:
    return set(glob.glob("/dev/shm/repro-*"))


# ---------------------------------------------------------------------------
# shared-memory tensors
# ---------------------------------------------------------------------------


class TestShmTensor:
    def test_create_attach_unlink_roundtrip(self):
        owner = ShmTensor.create((4, 3), np.float64)
        owner.array[:] = np.arange(12.0).reshape(4, 3)
        view = ShmTensor.attach(owner.handle)
        assert np.array_equal(view.array, owner.array)
        owner.array[0, 0] = -1.0  # same physical pages
        assert view.array[0, 0] == -1.0
        view.close()
        owner.close()
        owner.unlink()
        assert not os.path.exists(f"/dev/shm/{owner.handle.name}")

    def test_attached_view_is_readonly_by_default(self):
        with ShmTensor.create((2,), np.float32) as owner:
            view = ShmTensor.attach(owner.handle)
            with pytest.raises(ValueError):
                view.array[0] = 1.0
            view.close()
            owner.unlink()

    def test_attacher_must_never_unlink(self):
        owner = ShmTensor.create((2,), np.int64)
        view = ShmTensor.attach(owner.handle)
        with pytest.raises(RuntimeError, match="does not own"):
            view.unlink()
        view.close()
        owner.close()
        owner.unlink()

    def test_unlink_is_idempotent(self):
        owner = ShmTensor.create((2,), np.int64)
        owner.close()
        owner.unlink()
        owner.unlink()  # FileNotFoundError is absorbed

    def test_handle_is_picklable_and_sized(self):
        import pickle

        with ShmTensor.create((3, 5), np.float32) as owner:
            handle = pickle.loads(pickle.dumps(owner.handle))
            assert handle == owner.handle
            assert handle.nbytes == 3 * 5 * 4
            owner.unlink()


class TestShmArena:
    def test_put_copies_and_close_unlinks(self):
        arena = ShmArena(name="t")
        data = np.random.default_rng(0).standard_normal((4, 4))
        tensor = arena.put(data)
        assert np.array_equal(tensor.array, data)
        names = arena.live_segments()
        assert names == [tensor.handle.name]
        arena.close()
        assert arena.live_segments() == []
        assert not os.path.exists(f"/dev/shm/{names[0]}")

    def test_closed_arena_rejects_create(self):
        arena = ShmArena(name="t")
        arena.close()
        with pytest.raises(RuntimeError, match="closed"):
            arena.create((2,), np.float64)


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------


class TestProcessPool:
    def test_map_preserves_submission_order(self):
        with ProcessPool(2, seed=0) as pool:
            assert pool.map(_square, [3, 1, 2, 5]) == [9, 1, 4, 25]
            stats = pool.stats()
        assert stats["tasks_done"] == 4 and stats["restarts"] == 0

    def test_remote_errors_are_typed_and_carry_tracebacks(self):
        with ProcessPool(1, seed=0) as pool:
            with pytest.raises(RemoteTaskError) as excinfo:
                pool.map(_boom, [7])
        assert excinfo.value.exc_type == "ValueError"
        assert "boom 7" in str(excinfo.value)
        assert "ValueError" in excinfo.value.remote_tb

    def test_closures_and_lambdas_are_rejected(self):
        def local(x):
            return x

        with ProcessPool(1, seed=0) as pool:
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
        with ProcessPool(2, seed=0, env=env, max_restarts=16) as pool:
            assert pool.map(_square, items) == [x * x for x in items]
            assert pool.restarts >= 1

    def test_restart_budget_exhaustion_fails_typed(self):
        env = {
            "REPRO_FAULTS": json.dumps(
                {"seed": 0,
                 "faults": [{"site": "parallel.worker.task", "kind": "kill"}]}
            )
        }
        with ProcessPool(1, seed=0, env=env, max_restarts=1) as pool:
            with pytest.raises(WorkerCrashed, match="restart budget"):
                pool.map(_square, [3])

    def test_parent_side_worker_helpers(self):
        assert current_worker_id() is None
        assert isinstance(worker_rng(), np.random.Generator)

    def test_submit_after_close_rejected(self):
        pool = ProcessPool(1, seed=0)
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
        with ProcessPool(2, seed=0) as pool:
            assert parallel_map(_square, [1, 2, 3], pool=pool) == [1, 4, 9]
            assert pool.stats()["tasks_done"] == 3

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_task_seeds_reproducible_and_distinct(self):
        a = task_seeds(7, 5)
        b = task_seeds(7, 5)
        assert a == b and len(set(a)) == 5
        assert task_seeds(8, 5) != a


# ---------------------------------------------------------------------------
# determinism-by-sharding: the contract the data plane rests on
# ---------------------------------------------------------------------------

_DATAGEN = DataGenConfig(
    n=16, reynolds=400.0, n_samples=3, warmup=0.05, duration=0.1,
    sample_interval=0.02, solver="spectral", ic="band", seed=11,
)

_MODEL = ChannelFNOConfig(
    n_in=2, n_out=1, n_fields=2, modes1=3, modes2=3, width=8, n_layers=2,
    projection_channels=16,
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

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_batch_loader_bitwise_equal_to_serial(self, n_workers):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((13, 2, 4, 4))
        y = rng.standard_normal((13, 1, 4, 4))
        serial = DataLoader(x, y, batch_size=4, shuffle=True, rng=123)
        with ParallelBatchLoader(
            x, y, batch_size=4, shuffle=True, rng=123, n_workers=n_workers
        ) as parallel:
            assert len(parallel) == len(serial)
            for _ in range(2):  # two epochs: the shuffle streams advance in step
                a = [(xb.numpy(), yb.numpy()) for xb, yb in serial]
                b = [(xb.numpy(), yb.numpy()) for xb, yb in parallel]
                assert len(a) == len(b)
                for (xa, ya), (xbb, ybb) in zip(a, b):
                    assert np.array_equal(xa, xbb)
                    assert np.array_equal(ya, ybb)

    def test_batch_loader_serial_mode_uses_no_pool(self):
        x = np.zeros((4, 1)); y = np.zeros((4, 1))
        loader = ParallelBatchLoader(x, y, batch_size=2, n_workers=1)
        assert loader._pool is None and loader._arena is None
        loader.close()

    def test_two_epoch_training_identical_at_any_worker_count(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((12, _MODEL.n_in * _MODEL.n_fields, 12, 12))
        y = rng.standard_normal((12, _MODEL.n_out * _MODEL.n_fields, 12, 12))

        def run(batch_workers: int):
            trainer = Trainer(
                build_model(_MODEL, rng=np.random.default_rng(0)),
                TrainingConfig(epochs=2, batch_size=4, learning_rate=1e-3, seed=0),
            )
            history = trainer.fit(x, y, batch_workers=batch_workers)
            return trainer.model.state_dict(), history.train_loss

        ref_state, ref_loss = run(0)  # the in-process (threaded) baseline
        for batch_workers in (2, 4):
            state, loss = run(batch_workers)
            assert loss == ref_loss
            assert set(state) == set(ref_state)
            for key in ref_state:
                assert np.array_equal(state[key], ref_state[key]), key

    def test_no_shm_leaks_after_the_full_suite_of_uses(self):
        before = _shm_names()
        with ParallelBatchLoader(
            np.zeros((6, 2)), np.zeros((6, 1)), batch_size=2, n_workers=2
        ) as loader:
            list(loader)
        generate_dataset(_DATAGEN, n_workers=2)
        assert _shm_names() == before
