"""Property-style tests of repro.faults: injection determinism, the
retry/breaker/deadline policy layer, atomic artifact I/O, and the
zero-overhead guarantee when no fault plan is installed."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import ChannelFNOConfig, Trainer, TrainingConfig, build_model
from repro.data.generation import TrajectorySample
from repro.data.io import load_samples, save_samples
from repro.faults import (
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceeded,
    DivergenceGuard,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    InjectedIOError,
    RetryPolicy,
    call_with_retry,
    injection,
    retry,
)
from repro.utils.artifacts import CheckpointError, atomic_write_npz, guarded_npz_load

GRID = 12
MODEL = ChannelFNOConfig(
    n_in=2, n_out=1, n_fields=2, modes1=3, modes2=3, width=8, n_layers=2,
    projection_channels=16,
)


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ---------------------------------------------------------------------------
# FaultPlan decisions
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_unconstrained_spec_fires_on_every_hit(self):
        plan = FaultPlan([FaultSpec("s", "nan")])
        assert [len(plan.poll("s")) for _ in range(3)] == [1, 1, 1]
        assert plan.poll("other") == []

    def test_at_every_times_semantics(self):
        plan = FaultPlan([
            FaultSpec("s", "nan", at=2),
            FaultSpec("s", "delay", every=3),
            FaultSpec("s", "partial_write", times=1),
        ])
        kinds = [sorted(sp.kind for sp in plan.poll("s")) for _ in range(6)]
        assert kinds == [
            ["partial_write"],   # hit 1: times=1 spec fires once, then never
            ["nan"],             # hit 2: at=2
            ["delay"],           # hit 3: every=3
            [], [],              # hits 4, 5
            ["delay"],           # hit 6
        ]

    def test_prob_decisions_are_seeded(self):
        def decisions(seed):
            plan = FaultPlan([FaultSpec("s", "nan", prob=0.5)], seed=seed)
            return [bool(plan.poll("s")) for _ in range(32)]

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)
        assert any(decisions(7)) and not all(decisions(7))

    def test_reset_restores_initial_decisions(self):
        plan = FaultPlan([FaultSpec("s", "nan", at=1)], seed=0)
        first = [bool(plan.poll("s")) for _ in range(3)]
        plan.reset()
        assert [bool(plan.poll("s")) for _ in range(3)] == first

    def test_stats_counts_hits_and_firings(self):
        plan = FaultPlan([FaultSpec("s", "nan", at=2)])
        for _ in range(3):
            plan.poll("s")
        plan.poll("t")
        assert plan.stats() == {"hits": {"s": 3, "t": 1}, "fired": {"s:nan": 1}}

    def test_json_round_trip(self):
        plan = FaultPlan(
            [FaultSpec("s", "io_error", times=2), FaultSpec("t", "delay", delay=0.5)],
            seed=11,
        )
        clone = FaultPlan.from_json(json.dumps(plan.to_dict()))
        assert clone.to_dict() == plan.to_dict()

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("s", "explode")
        with pytest.raises(ValueError):
            FaultSpec("s", at=0)
        with pytest.raises(ValueError):
            FaultSpec("s", prob=1.5)


class TestInstall:
    def test_refcounted_install_uninstall(self):
        plan = FaultPlan([FaultSpec("s")])
        assert not injection.ACTIVE
        injection.install(plan)
        injection.install(plan)
        assert injection.ACTIVE and injection.current_plan() is plan
        injection.uninstall()
        assert injection.ACTIVE
        injection.uninstall()
        assert not injection.ACTIVE and injection.current_plan() is None

    def test_second_plan_rejected_while_installed(self):
        with injection.active(FaultPlan([FaultSpec("s")])):
            with pytest.raises(RuntimeError):
                injection.install(FaultPlan([FaultSpec("t")]))
        assert not injection.ACTIVE

    def test_uninstall_without_install_raises(self):
        with pytest.raises(RuntimeError):
            injection.uninstall()

    def test_fire_raises_typed_errors(self):
        with injection.active(FaultPlan([FaultSpec("s", "error")])):
            with pytest.raises(InjectedFault) as exc:
                injection.fire("s")
            assert exc.value.site == "s"
        with injection.active(FaultPlan([FaultSpec("s", "io_error")])):
            with pytest.raises(OSError):
                injection.fire("s")
        assert issubclass(InjectedIOError, InjectedFault)

    def test_fire_value_poisons_copy_not_original(self):
        arr = np.ones((2, 3))
        with injection.active(FaultPlan([FaultSpec("s", "nan")])):
            out = injection.fire_value("s", arr)
        assert np.isnan(out).sum() == 1
        assert np.all(np.isfinite(arr))

    def test_configure_from_env(self):
        assert injection.configure_from_env({}) is None
        assert injection.configure_from_env({"REPRO_FAULTS": "0"}) is None
        plan_json = json.dumps({"seed": 3, "faults": [{"site": "s", "kind": "nan"}]})
        plan = injection.configure_from_env({"REPRO_FAULTS": plan_json})
        try:
            assert injection.ACTIVE and plan.seed == 3
        finally:
            injection.uninstall()

    def test_configure_from_env_reads_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"faults": [{"site": "s"}]}))
        plan = injection.configure_from_env({"REPRO_FAULTS": str(path)})
        try:
            assert plan.specs[0].site == "s"
        finally:
            injection.uninstall()


# ---------------------------------------------------------------------------
# policy layer
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_sequence_without_jitter(self):
        policy = RetryPolicy(attempts=5, backoff=0.1, factor=2.0, max_backoff=0.5)
        assert policy.delays() == [0.1, 0.2, 0.4, 0.5]

    def test_jittered_delays_are_seeded_and_bounded(self):
        policy = RetryPolicy(attempts=6, backoff=0.1, jitter=0.5, seed=3)
        delays = policy.delays()
        assert delays == RetryPolicy(attempts=6, backoff=0.1, jitter=0.5, seed=3).delays()
        assert delays != RetryPolicy(attempts=6, backoff=0.1, jitter=0.5, seed=4).delays()
        raw = RetryPolicy(attempts=6, backoff=0.1).delays()
        for got, base in zip(delays, raw):
            assert 0.5 * base <= got <= 1.5 * base

    def test_retries_then_succeeds(self):
        calls, sleeps = [], []
        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"
        out = call_with_retry(
            flaky,
            policy=RetryPolicy(attempts=4, backoff=0.1, retry_on=(OSError,)),
            sleep=sleeps.append,
        )
        assert out == "ok" and len(calls) == 3 and sleeps == [0.1, 0.2]

    def test_exhausted_attempts_reraise_last_error(self):
        def always():
            raise OSError("persistent")
        with pytest.raises(OSError, match="persistent"):
            call_with_retry(
                always, policy=RetryPolicy(attempts=3, backoff=0.0), sleep=lambda s: None
            )

    def test_non_matching_error_propagates_immediately(self):
        calls = []
        def wrong_kind():
            calls.append(1)
            raise KeyError("nope")
        with pytest.raises(KeyError):
            call_with_retry(
                wrong_kind,
                policy=RetryPolicy(attempts=5, retry_on=(OSError,)),
                sleep=lambda s: None,
            )
        assert len(calls) == 1

    def test_decorator_form(self):
        calls = []
        @retry(RetryPolicy(attempts=2, backoff=0.0), sleep=lambda s: None)
        def flaky(x):
            calls.append(x)
            if len(calls) < 2:
                raise ValueError("once")
            return x * 2
        assert flaky(21) == 42 and calls == [21, 21]

    def test_deadline_caps_the_attempt_sequence(self):
        clock = FakeClock()
        deadline = Deadline(1.0, clock=clock)
        def failing():
            clock.advance(0.6)
            raise OSError("slow failure")
        with pytest.raises((OSError, DeadlineExceeded)):
            call_with_retry(
                failing,
                policy=RetryPolicy(attempts=10, backoff=0.0),
                sleep=lambda s: None,
                deadline=deadline,
            )
        assert clock.t < 2.0  # far fewer than 10 attempts ran


class TestDeadline:
    def test_remaining_and_check(self):
        clock = FakeClock()
        deadline = Deadline(2.0, clock=clock)
        assert deadline.remaining() == 2.0 and not deadline.expired()
        clock.advance(2.5)
        assert deadline.expired()
        with pytest.raises(DeadlineExceeded, match="shard"):
            deadline.check("shard")


class TestCircuitBreaker:
    def make(self, clock):
        return CircuitBreaker(
            failure_threshold=2, reset_timeout=10.0, name="test", clock=clock
        )

    def test_open_half_open_closed_cycle(self):
        clock = FakeClock()
        breaker = self.make(clock)
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()

        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.allow()        # the probe slot
        assert not breaker.allow()    # half_open_max=1: second probe rejected
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"

    def test_admit_raises_with_retry_after_hint(self):
        clock = FakeClock()
        breaker = self.make(clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(4.0)
        with pytest.raises(CircuitOpenError) as exc:
            breaker.admit()
        assert exc.value.retry_after == pytest.approx(6.0)

    def test_success_resets_failure_streak(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_snapshot_shape(self):
        breaker = self.make(FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        snap = breaker.snapshot()
        assert snap == {"name": "test", "state": "open", "failures": 2,
                        "opens": 1, "rejected": 0}


class TestDivergenceGuard:
    def test_healthy_field_passes(self):
        guard = DivergenceGuard()
        arr = np.random.default_rng(0).standard_normal((4, 4))
        assert guard.diagnose(arr, float(np.mean(arr**2))) is None

    def test_nan_detected(self):
        arr = np.ones((4, 4))
        arr[0, 0] = np.nan
        assert "non-finite" in DivergenceGuard().diagnose(arr, 1.0)

    def test_energy_blowup_detected(self):
        guard = DivergenceGuard(max_energy_ratio=100.0)
        assert "blow-up" in guard.diagnose(np.full((4, 4), 50.0), 1.0)
        assert guard.diagnose(np.full((4, 4), 5.0), 1.0) is None


# ---------------------------------------------------------------------------
# atomic artifact I/O
# ---------------------------------------------------------------------------


def _samples(rng, n=2):
    return [
        TrajectorySample(
            times=np.arange(4) * 0.02,
            vorticity=rng.standard_normal((4, GRID, GRID)),
            velocity=rng.standard_normal((4, 2, GRID, GRID)),
            reynolds=400.0,
            sample_id=i,
        )
        for i in range(n)
    ]


class TestAtomicArtifacts:
    def test_round_trip_and_no_leftover_tmp(self, tmp_path):
        path = tmp_path / "a.npz"
        atomic_write_npz(path, {"x": np.arange(3)})
        with guarded_npz_load(path) as data:
            assert np.array_equal(data["x"], np.arange(3))
        # Artifact + manifest sidecar, and no leftover temp file.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.npz", "a.npz.manifest.json",
        ]

    def test_crash_fault_leaves_destination_untouched(self, tmp_path):
        path = tmp_path / "a.npz"
        atomic_write_npz(path, {"x": np.arange(3)}, site="checkpoint.write")
        before = path.read_bytes()
        with injection.active(FaultPlan([FaultSpec("checkpoint.write", "error")])):
            with pytest.raises(InjectedFault):
                atomic_write_npz(path, {"x": np.arange(9)}, site="checkpoint.write")
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "a.npz", "a.npz.manifest.json",
        ]

    def test_partial_write_fails_typed_on_load(self, tmp_path):
        path = tmp_path / "torn.npz"
        with injection.active(FaultPlan([FaultSpec("checkpoint.write", "partial_write")])):
            atomic_write_npz(path, {"x": np.arange(1000)}, site="checkpoint.write")
        with pytest.raises(CheckpointError, match="torn.npz"):
            with guarded_npz_load(path) as data:
                data["x"]  # noqa: B018 — force the member read

    def test_missing_file_raises_checkpoint_error_with_path(self, tmp_path):
        with pytest.raises(CheckpointError, match="nope.npz"):
            with guarded_npz_load(tmp_path / "nope.npz"):
                pass

    def test_garbage_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"this is not a zip file")
        with pytest.raises(CheckpointError, match="junk.npz"):
            load_samples(path)

    def test_truncated_shard_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "shard.npz"
        save_samples(path, _samples(np.random.default_rng(0)))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="shard.npz"):
            load_samples(path)

    def test_trainer_checkpoint_corruption_is_typed(self, tmp_path):
        trainer = Trainer(
            build_model(MODEL, rng=np.random.default_rng(0)),
            TrainingConfig(epochs=1, batch_size=4),
        )
        path = tmp_path / "ckpt.npz"
        trainer.save_checkpoint(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 3])
        with pytest.raises(CheckpointError, match="ckpt.npz"):
            trainer.load_checkpoint(path)


# ---------------------------------------------------------------------------
# zero-overhead no-op when disabled
# ---------------------------------------------------------------------------


class TestDisabledIsNoOp:
    def test_sites_never_call_fire_when_inactive(self, tmp_path, monkeypatch):
        """With no plan installed the instrumented code paths must not
        even *call* into the injection module (the ACTIVE guard folds
        them away) — the bench_faults_overhead probe pins the timing
        side of the same contract."""
        assert not injection.ACTIVE

        def bomb(*a, **k):
            raise AssertionError("fire() called while injection is disabled")

        monkeypatch.setattr(injection, "fire", bomb)
        monkeypatch.setattr(injection, "fire_value", bomb)

        # data.write_shard (checkpoint.write is below)
        rng = np.random.default_rng(0)
        shard = tmp_path / "s.npz"
        save_samples(shard, _samples(rng))
        assert load_samples(shard)[0]

        # rollout.step
        from repro.core.rollout import rollout_channels

        model = build_model(MODEL, rng=np.random.default_rng(0))
        window = rng.standard_normal((1, MODEL.n_in * MODEL.n_fields, GRID, GRID))
        out = rollout_channels(model, window, n_snapshots=2)
        assert out.shape[1] == 2 * MODEL.n_fields

        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=4))
        trainer.save_checkpoint(tmp_path / "c.npz")
