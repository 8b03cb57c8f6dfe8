"""Chaos harness: seeded fault plans × subsystem probes → JSON verdict.

Each *scenario* is a self-contained probe of one subsystem's failure
behaviour: it builds its own tiny models/datasets in a scratch
directory, installs seeded :class:`~repro.faults.injection.FaultPlan`\\ s,
and returns a list of named pass/fail checks.  :func:`run_matrix` runs
every scenario across a seed matrix and folds the results into a
verdict dict that is a pure function of the seeds — no timestamps, no
absolute paths, no global counter state — so CI can assert
``repro chaos --seed-matrix 3`` twice and diff the JSON.

This module deliberately lives outside the :mod:`repro.faults`
package namespace: it imports the subsystems under test (core, serve,
fleet, parallel), which the injection/policy layers must never do.
"""

from __future__ import annotations

import hashlib
import tempfile
import time
from pathlib import Path

import numpy as np

from ..core import ChannelFNOConfig, HybridConfig, Trainer, TrainingConfig
from ..core.hybrid import run_hybrid_batched, run_pure_fno_batched
from ..core.models import build_model
from ..utils.artifacts import CheckpointError
from . import injection
from .injection import FaultPlan, FaultSpec, InjectedFault
from .policy import CircuitBreaker, CircuitOpenError, RetryPolicy

__all__ = ["SCENARIOS", "run_scenario", "run_matrix"]

GRID = 12

MODEL = ChannelFNOConfig(
    n_in=2, n_out=1, n_fields=2, modes1=3, modes2=3, width=8, n_layers=2,
    projection_channels=16,
)


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "ok": bool(ok), "detail": detail}


def _build_model(seed: int):
    return build_model(MODEL, rng=np.random.default_rng(seed))


def _synthetic_pairs(seed: int, n: int = 8):
    """Seeded random (X, Y) channel pairs shaped for the tiny MODEL."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, MODEL.n_in * MODEL.n_fields, GRID, GRID))
    y = rng.standard_normal((n, MODEL.n_out * MODEL.n_fields, GRID, GRID))
    return x, y


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _trainer(seed: int, epochs: int) -> Trainer:
    return Trainer(
        _build_model(seed),
        TrainingConfig(epochs=epochs, batch_size=4, learning_rate=1e-3, seed=seed),
    )


# ---------------------------------------------------------------------------
# scenarios — fn(seed, workdir) -> list of check dicts
# ---------------------------------------------------------------------------


def checkpoint_atomicity(seed: int, workdir: Path) -> list[dict]:
    """Crashes and torn writes at ``checkpoint.write`` never corrupt the
    published checkpoint; transient I/O errors are absorbed by retry."""
    checks = []
    trainer = _trainer(seed, epochs=1)
    x, y = _synthetic_pairs(seed)
    trainer.fit(x, y)
    path = workdir / "ckpt.npz"
    trainer.save_checkpoint(path)
    good_digest = _sha256(path)

    # A crash (error fault fires before any bytes move) leaves the
    # previous checkpoint byte-identical and loadable.
    crashed = False
    with injection.active(FaultPlan([FaultSpec("checkpoint.write", "error")], seed)):
        try:
            trainer.save_checkpoint(path)
        except InjectedFault:
            crashed = True
    checks.append(_check("crash-raises-typed-fault", crashed))
    checks.append(_check("crash-leaves-bytes-intact", _sha256(path) == good_digest))
    probe = _trainer(seed, epochs=1)
    probe.load_checkpoint(path)
    checks.append(_check("survivor-still-loads", probe.epochs_completed == 1))

    # A torn write publishes a truncated file; the loader must answer
    # with CheckpointError, not a zipfile traceback.
    torn = workdir / "torn.npz"
    with injection.active(
        FaultPlan([FaultSpec("checkpoint.write", "partial_write")], seed)
    ):
        trainer.save_checkpoint(torn)
    try:
        _trainer(seed, epochs=1).load_checkpoint(torn)
        checks.append(_check("torn-write-fails-typed", False,
                             "truncated checkpoint loaded without error"))
    except CheckpointError:
        checks.append(_check("torn-write-fails-typed", True))

    # One transient I/O error + a retry policy → the save goes through.
    with injection.active(
        FaultPlan([FaultSpec("checkpoint.write", "io_error", times=1)], seed)
    ):
        trainer.save_checkpoint(
            path,
            retry=RetryPolicy(attempts=3, backoff=0.0, retry_on=(OSError,), seed=seed),
        )
    probe = _trainer(seed, epochs=1)
    probe.load_checkpoint(path)
    checks.append(_check("transient-io-error-retried", probe.epochs_completed == 1))
    return checks


def crash_resume(seed: int, workdir: Path) -> list[dict]:
    """A run killed mid-checkpoint resumes from the last good checkpoint
    to a bitwise-identical final state."""
    checks = []
    x, y = _synthetic_pairs(seed)
    path = workdir / "resume.npz"

    straight = _trainer(seed, epochs=4)
    straight.fit(x, y)

    # Same run, but the epoch-3 checkpoint write crashes the process.
    crashed = _trainer(seed, epochs=4)
    interrupted = False
    with injection.active(
        FaultPlan([FaultSpec("checkpoint.write", "error", at=3)], seed)
    ):
        try:
            crashed.fit(x, y, checkpoint_path=path, checkpoint_every=1)
        except InjectedFault:
            interrupted = True
    checks.append(_check("crash-interrupts-training", interrupted))

    resumed = _trainer(seed, epochs=4)
    resumed.load_checkpoint(path)
    checks.append(_check("checkpoint-is-last-good-epoch",
                         resumed.epochs_completed == 2,
                         f"resumed at epoch {resumed.epochs_completed}"))
    resumed.fit(x, y)

    a, b = straight.model.state_dict(), resumed.model.state_dict()
    checks.append(_check("weights-bitwise-equal",
                         set(a) == set(b)
                         and all(np.array_equal(a[k], b[k]) for k in a)))
    oa, ob = straight.optimizer.state_dict(), resumed.optimizer.state_dict()
    checks.append(_check("optimizer-moments-bitwise-equal",
                         oa["t"] == ob["t"]
                         and all(np.array_equal(p, q) for p, q in zip(oa["m"], ob["m"]))
                         and all(np.array_equal(p, q) for p, q in zip(oa["v"], ob["v"]))))
    checks.append(_check("history-identical",
                         straight.history.train_loss == resumed.history.train_loss))
    return checks


def serve_faults(seed: int, workdir: Path) -> list[dict]:
    """Worker faults and slow batches degrade to typed per-request errors
    and breaker-gated rejection — never a deadlocked queue."""
    from ..core.zoo import save_model
    from ..serve import BatchPolicy, InferenceService, ModelRegistry

    checks = []
    ckpt = workdir / "serve.npz"
    save_model(ckpt, _build_model(seed), MODEL)
    registry = ModelRegistry()
    registry.register("tiny", ckpt)
    window = np.random.default_rng(seed).standard_normal(
        (MODEL.n_in, MODEL.n_fields, GRID, GRID)
    )
    breaker = CircuitBreaker(failure_threshold=2, reset_timeout=0.2,
                             name="serve.workers")
    plan = FaultPlan(
        [
            FaultSpec("serve.worker.infer", "delay", at=1, delay=0.05),
            FaultSpec("serve.worker.infer", "error", at=2),
            FaultSpec("serve.worker.infer", "error", at=3),
        ],
        seed,
    )
    service = InferenceService(
        registry,
        BatchPolicy(max_batch=2, max_wait_ms=1.0, max_queue=8),
        n_workers=2, default_mode="fno", request_timeout=10.0, breaker=breaker,
    )
    with injection.active(plan), service:
        slow = service.predict("tiny", window)
        checks.append(_check("slow-batch-completes",
                             np.all(np.isfinite(slow["velocity"]))))
        failures = 0
        for _ in range(2):
            try:
                service.predict("tiny", window)
            except InjectedFault:
                failures += 1
        checks.append(_check("worker-fault-is-typed-per-request", failures == 2))
        try:
            service.predict("tiny", window)
            checks.append(_check("breaker-rejects-fast", False,
                                 "request admitted through open breaker"))
        except CircuitOpenError:
            checks.append(_check("breaker-rejects-fast", True))
        checks.append(_check("breaker-open", breaker.state == "open"))

        time.sleep(0.25)  # reset_timeout elapses → half-open probe allowed
        probe = service.predict("tiny", window)
        checks.append(_check("half-open-probe-recovers",
                             np.all(np.isfinite(probe["velocity"]))
                             and breaker.state == "closed"))

        snapshot = service.stats_snapshot()
        checks.append(_check("stats-shape-preserved",
                             {"requests", "queue_depth", "breaker"}
                             <= set(snapshot)))
        checks.append(_check("queue-drained", service.queue.depth() == 0))
        checks.append(_check("workers-alive", service.workers.alive == 2))
    return checks


def rollout_guard(seed: int, workdir: Path) -> list[dict]:
    """NaN-poisoned FNO steps: pure roll-outs raise typed RolloutDiverged,
    the hybrid driver falls back to the PDE window and stays finite."""
    from ..faults.policy import DivergenceGuard, RolloutDiverged
    from ..ns import FDNSSolver2D

    checks = []
    model = _build_model(seed)
    windows = np.random.default_rng(seed).standard_normal(
        (1, MODEL.n_in, MODEL.n_fields, GRID, GRID)
    )

    # Unguarded: the injected NaN propagates — the failure mode exists.
    with injection.active(FaultPlan([FaultSpec("rollout.step", "nan")], seed)):
        record = run_pure_fno_batched(model, windows, n_snapshots=2,
                                      guard=None)[0]
    checks.append(_check("nan-injection-poisons-unguarded-rollout",
                         not np.all(np.isfinite(record.velocity))))

    # Guarded pure roll-out: typed error instead of silent garbage.
    with injection.active(FaultPlan([FaultSpec("rollout.step", "nan")], seed)):
        try:
            run_pure_fno_batched(model, windows, n_snapshots=2,
                                 guard=DivergenceGuard())
            checks.append(_check("guard-raises-rollout-diverged", False,
                                 "guard let a NaN roll-out finish"))
        except RolloutDiverged as exc:
            checks.append(_check("guard-raises-rollout-diverged",
                                 exc.step == 1 and "non-finite" in exc.reason))

    # Hybrid: the guard swaps the poisoned FNO window for PDE integration.
    nu = 2.0 * np.pi / 400.0
    cfg = HybridConfig(n_in=MODEL.n_in, n_out=MODEL.n_out,
                       n_fields=MODEL.n_fields, sample_interval=0.01, n_cycles=2)
    with injection.active(FaultPlan([FaultSpec("rollout.step", "nan")], seed)):
        record = run_hybrid_batched(model, [FDNSSolver2D(GRID, nu)],
                                    windows, cfg)[0]
    checks.append(_check("hybrid-falls-back-to-pde",
                         "pde-fallback" in record.source))
    checks.append(_check("hybrid-record-stays-finite",
                         bool(np.all(np.isfinite(record.velocity)))))
    return checks


def trust_fallback(seed: int, workdir: Path) -> list[dict]:
    """Finite physics-violating corruption (seeded ``noise`` faults) slips
    past the NaN/energy guard but trips the *trust* policy: hybrid windows
    fall back to the PDE with ``trust:`` provenance in the journal, and at
    the serve layer an open trust breaker forces pure-FNO traffic onto the
    hybrid path."""
    from .. import obs
    from ..ns import FDNSSolver2D
    from ..obs.trace import load_trace
    from ..trust import TrustGuard, TrustPolicy

    checks = []
    model = _build_model(seed)
    windows = np.random.default_rng(seed).standard_normal(
        (1, MODEL.n_in, MODEL.n_fields, GRID, GRID)
    )
    nu = 2.0 * np.pi / 400.0
    cfg = HybridConfig(n_in=MODEL.n_in, n_out=MODEL.n_out,
                       n_fields=MODEL.n_fields, sample_interval=0.01, n_cycles=2)

    def noise_plan() -> FaultPlan:
        return FaultPlan([FaultSpec("rollout.step", "noise", scale=1.0)], seed)

    # The stock guard only sees NaNs and energy blow-ups: rms-sized white
    # noise is finite and roughly energy-preserving, so the corrupted FNO
    # windows sail through — the failure mode this scenario exists for.
    with injection.active(noise_plan()):
        plain = run_hybrid_batched(model, [FDNSSolver2D(GRID, nu)],
                                   windows, cfg)[0]
    checks.append(_check("nan-check-misses-physics-fault",
                         "pde-fallback" not in plain.source
                         and bool(np.all(np.isfinite(plain.velocity)))))

    # TrustGuard measures divergence: the same fault now triggers PDE
    # fallback, with reason provenance in the obs journal.
    policy = TrustPolicy(max_rms_divergence=0.05, enforce=True)
    trace = workdir / "trust.trace.jsonl"
    obs.configure(trace_path=trace)
    try:
        with injection.active(noise_plan()):
            guarded = run_hybrid_batched(
                model, [FDNSSolver2D(GRID, nu)], windows, cfg,
                guard=TrustGuard(policy=policy),
            )[0]
    finally:
        obs.shutdown()
    checks.append(_check("trust-guard-falls-back-to-pde",
                         "pde-fallback" in guarded.source))
    checks.append(_check("fallback-record-stays-finite",
                         bool(np.all(np.isfinite(guarded.velocity)))))
    reasons = [
        rec.get("attrs", {}).get("reason", "")
        for rec in load_trace(trace)
        if rec.get("type") == "event" and rec.get("name") == "hybrid.fallback"
    ]
    checks.append(_check("journal-records-trust-provenance",
                         bool(reasons)
                         and all(r.startswith("trust:") for r in reasons),
                         f"{len(reasons)} fallback events"))

    # Serve layer: flagged responses open the trust breaker, after which
    # fno requests are transparently served on the hybrid path.
    from ..core.zoo import save_model
    from ..serve import BatchPolicy, InferenceService, ModelRegistry

    ckpt = workdir / "trust-serve.npz"
    save_model(ckpt, model, MODEL)
    registry = ModelRegistry()
    registry.register("tiny", ckpt)
    serve_policy = TrustPolicy(
        max_rms_divergence=1e-6, enforce=True, members=2,
        breaker_failures=2, breaker_reset_s=60.0,
    )
    service = InferenceService(
        registry,
        BatchPolicy(max_batch=1, max_wait_ms=0.5, max_queue=8),
        n_workers=1, default_mode="fno", request_timeout=30.0,
        breaker=None, trust=serve_policy,
    )
    with service:
        for _ in range(serve_policy.breaker_failures):
            out = service.predict("tiny", windows[0], mode="fno")
        checks.append(_check("untrusted-response-flagged",
                             out["trust"] is not None
                             and not out["trust"]["trusted"]
                             and out["diagnostics"] is not None
                             and out["uncertainty"] is not None))
        checks.append(_check("trust-breaker-opens",
                             service.trust_breaker.state == "open"))
        forced = service.predict("tiny", windows[0], mode="fno")
        checks.append(_check("fno-forced-to-hybrid",
                             forced["mode"] == "hybrid"
                             and forced["mode_forced"] is True))
        checks.append(_check("forced-response-stays-finite",
                             bool(np.all(np.isfinite(forced["velocity"])))))
        snapshot = service.stats_snapshot()
        trust_slice = snapshot.get("trust")
        checks.append(_check("stats-trust-snapshot",
                             isinstance(trust_slice, dict)
                             and {"policy", "breaker", "reports", "flagged"}
                             <= set(trust_slice)
                             and trust_slice["flagged"] >= 2))
    checks.append(_check("injection-left-clean", not injection.ACTIVE))
    return checks


def _proc_shard_task(args):
    """Pool task for :func:`proc_worker_kill`: one seeded synthetic shard.

    The task carries its own seed and ``base`` row over the pool's pipe,
    exactly as datagen tasks do, and returns a ``(sample_id, digest)``
    pair the parent can audit for lost or duplicated work.
    """
    entropy, sample_id, base = args
    field = np.random.default_rng(entropy).standard_normal((GRID, GRID)) + base
    digest = hashlib.sha256(np.ascontiguousarray(field).tobytes()).hexdigest()
    return (int(sample_id), digest)


def proc_worker_kill(seed: int, workdir: Path) -> list[dict]:
    """SIGKILLing process-pool workers mid-shard loses nothing: the pool
    respawns, resubmits orphaned tasks, and the shard set comes back
    bitwise identical to a serial run."""
    import json as _json

    from ..parallel import ProcessPool, task_seeds

    checks = []
    n_samples = 6
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((4, GRID, GRID))
    entropies = task_seeds(seed, n_samples)
    jobs = [(entropy, i, base[i % base.shape[0]]) for i, entropy in enumerate(entropies)]

    # Serial reference: same math, no pool, no faults.
    reference = []
    for entropy, i, row in jobs:
        field = np.random.default_rng(entropy).standard_normal((GRID, GRID)) + row
        digest = hashlib.sha256(np.ascontiguousarray(field).tobytes()).hexdigest()
        reference.append((i, digest))

    # Faulted run: every child incarnation completes its first task and is
    # SIGKILLed on its second hit (hit counters are per process), so each
    # respawn makes at least one shard of forward progress and the run
    # converges within the restart budget.
    env = {
        "REPRO_FAULTS": _json.dumps(
            {"seed": seed,
             "faults": [{"site": "parallel.worker.task",
                         "kind": "kill", "at": 2}]}
        )
    }
    with ProcessPool(2, env=env, max_restarts=16, name="repro-chaos") as pool:
        results = pool.map(_proc_shard_task, jobs)
        stats = pool.stats()

    checks.append(_check("kill-recovery-bitwise-identical",
                         results == reference))
    checks.append(_check("workers-were-killed-and-restarted",
                         stats["restarts"] >= 1))
    sample_ids = sorted(sid for sid, _ in results)
    checks.append(_check("no-lost-or-duplicated-samples",
                         sample_ids == list(range(n_samples))))
    return checks


def _fleet_window(seed: int, i: int) -> np.ndarray:
    """Seeded request window ``i`` shaped for the tiny fleet MODEL."""
    rng = np.random.default_rng(seed * 1013 + i)
    return rng.standard_normal((MODEL.n_in, MODEL.n_fields, GRID, GRID))


def replica_kill(seed: int, workdir: Path) -> list[dict]:
    """SIGKILLing a replica mid-traffic loses nothing: the gateway fails
    requests over to the ring successor, the coordinator restarts the
    victim within its budget, the health lattice readmits it, and the
    request journal proves every request got exactly one response."""
    import json as _json
    import threading
    import urllib.request

    from ..core.zoo import save_model
    from ..fleet import Coordinator, Gateway, HealthPolicy, ReplicaSpec

    checks = []
    ckpt = workdir / "model.npz"
    save_model(ckpt, _build_model(seed), MODEL, manifest={"seed": seed})
    spec = ReplicaSpec(checkpoint=str(ckpt), model_name="tiny", workers=1,
                       queue_depth=32, max_batch=4, default_mode="fno",
                       drain_grace=2.0)
    coordinator = Coordinator(
        spec, n_replicas=3, workdir=workdir / "fleet",
        retry=RetryPolicy(attempts=6, backoff=0.05, retry_on=()),
        stall_timeout=30.0, poll_interval=0.05, ready_timeout=60.0,
    )
    coordinator.start()
    gateway = Gateway(
        coordinator, journal_path=workdir / "requests.jsonl",
        health_policy=HealthPolicy(readmit_after_s=0.3, stale_after_s=5.0),
        retry=RetryPolicy(attempts=5, backoff=0.2, factor=2.0,
                          max_backoff=2.0, retry_on=()),
        poll_interval=0.1,
    )
    gateway.start()
    victim = "r0"
    n_requests, n_threads = 18, 3
    done_lock = threading.Lock()
    done: list[dict] = []

    def send(i: int) -> dict:
        body = _json.dumps({"model": "tiny",
                            "window": _fleet_window(seed, i).tolist(),
                            "mode": "fno", "cycles": 1}).encode()
        req = urllib.request.Request(
            gateway.base_url() + "/predict", data=body, method="POST",
            headers={"Content-Type": "application/json",
                     "X-Request-Id": f"q-{i:02d}",
                     "X-Route-Key": f"q-{i:02d}"},
        )
        try:
            with urllib.request.urlopen(req, timeout=120.0) as resp:
                payload = _json.loads(resp.read())
                return {"i": i, "status": resp.status,
                        "finite": bool(np.all(np.isfinite(
                            np.asarray(payload.get("velocity")))))}
        except Exception as exc:  # any client-visible failure is a loss
            return {"i": i, "status": type(exc).__name__, "finite": False}

    def client(ids: list[int]) -> None:
        for i in ids:
            result = send(i)
            with done_lock:
                done.append(result)

    try:
        threads = [
            threading.Thread(target=client,
                             args=(list(range(t, n_requests, n_threads)),),
                             name=f"chaos-client-{t}")
            for t in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        # SIGKILL the victim once traffic is demonstrably in flight.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            with done_lock:
                if len(done) >= 5:
                    break
            time.sleep(0.01)
        coordinator.kill_replica(victim)
        for thread in threads:
            thread.join(timeout=120.0)

        with done_lock:
            results = sorted(done, key=lambda r: r["i"])
        checks.append(_check(
            "every-request-answered-200-finite",
            len(results) == n_requests
            and all(r["status"] == 200 and r["finite"] for r in results),
            f"bad: {[r['i'] for r in results if r['status'] != 200 or not r['finite']]}",
        ))
        verdict = gateway.router.journal.verify()
        checks.append(_check(
            "journal-exactly-once",
            verdict["exactly_once"] and verdict["submitted"] == n_requests,
            f"lost {verdict['lost']} duplicated {verdict['duplicated']} "
            f"failed {verdict['failed']}",
        ))
        # Self-healing: the coordinator restarted the victim without any
        # operator action, and the gateway readmitted it.
        deadline = time.monotonic() + 60.0
        healed = readmitted = False
        while time.monotonic() < deadline:
            status = coordinator.status()["replicas"][victim]
            healed = status["alive"] and status["restarts"] >= 1
            readmitted = victim in gateway.router.status()["admitted"]
            if healed and readmitted:
                break
            time.sleep(0.1)
        checks.append(_check("victim-restarted-by-supervisor", healed,
                             f"restarts {coordinator.restarts(victim)}"))
        checks.append(_check("victim-readmitted-by-gateway", readmitted))
        checks.append(_check(
            "no-replica-escalated",
            not any(r["failed"]
                    for r in coordinator.status()["replicas"].values()),
        ))
    finally:
        gateway.stop()
        coordinator.stop()
    return checks


def bad_deploy(seed: int, workdir: Path) -> list[dict]:
    """The deploy path refuses bad checkpoints at two gates: a missing or
    tampered lineage manifest is rejected before any replica restarts,
    and a manifested-but-broken model fails canary probation (probe
    finiteness + trust-score EWMA) and auto-rolls back to the previous
    checkpoint, leaving the fleet healthy and unmixed."""
    import json as _json
    import shutil

    from ..core.zoo import save_model
    from ..fleet import Coordinator, ReplicaSpec, probe_replica, rolling_deploy

    checks = []
    # Lenient trust thresholds: a healthy (random-init) model scores ~1
    # on every component; the broken model's non-finite outputs zero the
    # `finite` component regardless of thresholds, so the separation is
    # exact rather than calibration-dependent.
    policy_path = workdir / "trust-policy.json"
    policy_path.write_text(_json.dumps({
        "max_rms_divergence": 1e6, "max_pde_residual": 1e6,
        "max_spectrum_drift": 1e6, "max_relative_spread": 1e6,
        "members": 2, "sigma": 0.01, "seed": 0, "enforce": False,
    }), encoding="utf-8")

    v1 = workdir / "model_v1.npz"
    save_model(v1, _build_model(seed), MODEL, manifest={"seed": seed})
    spec = ReplicaSpec(checkpoint=str(v1), model_name="tiny", workers=1,
                       default_mode="fno", require_manifest=True,
                       trust=str(policy_path), drain_grace=2.0)
    probes = [{"model": "tiny", "window": _fleet_window(seed, i).tolist(),
               "mode": "fno", "cycles": 1} for i in range(2)]
    coordinator = Coordinator(
        spec, n_replicas=2, workdir=workdir / "fleet",
        retry=RetryPolicy(attempts=4, backoff=0.05, retry_on=()),
        stall_timeout=30.0, ready_timeout=60.0,
    )
    coordinator.start()
    try:
        baseline = probe_replica(coordinator.urls()["r0"], probes)
        checks.append(_check(
            "baseline-canary-healthy",
            baseline["healthy"] and baseline["trust_ewma"] is not None
            and baseline["trust_ewma"] >= 0.5,
            f"ewma {baseline['trust_ewma']}"))
        restarts_before = {rid: coordinator.restarts(rid)
                           for rid in coordinator.replica_ids()}

        # Gate 1a: a checkpoint with no manifest sidecar never deploys.
        rogue = workdir / "rogue.npz"
        save_model(rogue, _build_model(seed + 1), MODEL, manifest=False)
        report = rolling_deploy(coordinator, rogue, probes,
                                require_manifest=True)
        checks.append(_check(
            "unmanifested-checkpoint-rejected",
            not report["ok"] and report["stage"] == "manifest-gate"
            and not report["updated"] and not report["rolled_back"]))

        # Gate 1b: a tampered checkpoint (manifest checksum mismatch).
        tampered = workdir / "tampered.npz"
        shutil.copy(v1, tampered)
        shutil.copy(str(v1) + ".manifest.json",
                    str(tampered) + ".manifest.json")
        with open(tampered, "ab") as fh:  # repro: ignore[RPR008] -- deliberate corruption: the scenario needs a torn artifact
            fh.write(b"\x00corrupt")
        report = rolling_deploy(coordinator, tampered, probes,
                                require_manifest=True)
        checks.append(_check(
            "tampered-checkpoint-rejected",
            not report["ok"] and report["stage"] == "manifest-gate"))
        checks.append(_check(
            "gate-rejections-touch-no-replica",
            all(coordinator.restarts(rid) == restarts_before[rid]
                for rid in coordinator.replica_ids())
            and all(coordinator.spec_of(rid).checkpoint == str(v1)
                    for rid in coordinator.replica_ids())))

        # Gate 2: a manifested-but-broken model fails canary probation.
        broken_model = _build_model(seed)
        for param in broken_model.parameters():
            param.data = param.data * 1e30
        broken = workdir / "model_broken.npz"
        save_model(broken, broken_model, MODEL, manifest={"seed": seed})
        report = rolling_deploy(coordinator, broken, probes,
                                require_manifest=True)
        checks.append(_check(
            "broken-canary-rolled-back",
            not report["ok"] and report["stage"] == "canary"
            and report["rolled_back"] == ["r0"]))
        ewma = (report.get("verdict") or {}).get("trust_ewma")
        checks.append(_check(
            "trust-ewma-flags-canary",
            ewma is not None and ewma < 0.5, f"ewma {ewma}"))
        checks.append(_check(
            "fleet-unmixed-after-rollback",
            all(coordinator.spec_of(rid).checkpoint == str(v1)
                for rid in coordinator.replica_ids())))
        recovered = probe_replica(coordinator.urls()["r0"], probes)
        checks.append(_check("canary-healthy-after-rollback",
                             recovered["healthy"]))

        # A good, manifested checkpoint rolls through every replica.
        v2 = workdir / "model_v2.npz"
        save_model(v2, _build_model(seed + 1), MODEL,
                   manifest={"seed": seed + 1, "parents": [str(v1)]})
        report = rolling_deploy(coordinator, v2, probes,
                                require_manifest=True)
        checks.append(_check(
            "good-deploy-rolls-all-replicas",
            report["ok"] and report["stage"] == "complete"
            and report["updated"] == coordinator.replica_ids()
            and all(coordinator.spec_of(rid).checkpoint == str(v2)
                    for rid in coordinator.replica_ids())))
    finally:
        coordinator.stop()
    return checks


SCENARIOS = {
    "checkpoint_atomicity": checkpoint_atomicity,
    "crash_resume": crash_resume,
    "serve_faults": serve_faults,
    "rollout_guard": rollout_guard,
    "trust_fallback": trust_fallback,
    "proc_worker_kill": proc_worker_kill,
    "replica_kill": replica_kill,
    "bad_deploy": bad_deploy,
}


# ---------------------------------------------------------------------------


def run_scenario(name: str, seed: int, workdir) -> dict:
    """Run one scenario at one seed in a scratch directory."""
    fn = SCENARIOS[name]
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        checks = fn(seed, workdir)
    except Exception as exc:  # a scenario crash is itself a failing check
        checks = [_check("scenario-completed", False, type(exc).__name__)]
    return {
        "scenario": name,
        "seed": seed,
        "ok": all(c["ok"] for c in checks),
        "checks": checks,
    }


def run_matrix(seeds, scenarios=None, workdir=None) -> dict:
    """Run scenarios × seeds; return the deterministic verdict dict.

    The verdict carries only seed-determined content (names, booleans,
    check details) — re-running with the same seeds yields the same
    JSON byte-for-byte, which CI and the determinism test rely on.
    """
    names = sorted(scenarios) if scenarios else sorted(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s) {unknown} (known: {sorted(SCENARIOS)})")
    seeds = [int(s) for s in seeds]
    base = Path(workdir) if workdir is not None else Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    results = []
    for seed in seeds:
        for name in names:
            results.append(run_scenario(name, seed, base / f"s{seed}" / name))
    return {
        "version": 1,
        "seeds": seeds,
        "scenarios": names,
        "ok": all(r["ok"] for r in results),
        "results": results,
    }
