"""The inference service: registry + micro-batcher + worker pool.

``InferenceService.predict`` is the synchronous client API (the HTTP
front end calls it from request-handler threads): it validates the
request, enqueues it, and blocks until a worker completes the batch it
landed in.  Every kernel of a forward pass keeps a sample's bits
independent of the batch around it (the mode mixing is one
``(1, Cin) @ (Cin, Cout)`` product per sample and mode, see
:func:`repro.tensor.fft_ops.mode_mix`), so a response does not depend on
which batch the scheduler happened to fuse the request into.

``/predict`` defaults to the hybrid FNO–PDE scheme: the paper's pure-FNO
roll-outs blow up beyond a few Lyapunov times (Fig. 9), so the stable
windowed mode is the safe serving default and pure FNO is opt-in.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from .. import obs
from ..compile import runtime as _compile
from ..core.config import HybridConfig
from ..core.hybrid import run_hybrid_batched, run_pure_fno_batched
from ..faults import injection as _faults
from ..faults.policy import CircuitBreaker, CircuitOpenError
from ..trust import TrustGuard, TrustPolicy, assess_prediction
from .batching import BatchPolicy, BatchQueue, PredictRequest, QueueFullError
from .registry import ModelNotFound, ModelRegistry
from .stats import ServerStats
from .workers import WorkerPool

__all__ = ["InferenceService", "QueueFullError", "CircuitOpenError",
           "ServiceDraining"]


class ServiceDraining(RuntimeError):
    """The replica is draining for shutdown/deploy; retry elsewhere.

    Carries ``retry_after`` like :class:`QueueFullError` and
    :class:`CircuitOpenError`, so the HTTP layer answers ``503`` with a
    ``Retry-After`` header and fleet gateways re-route instead of
    waiting out a replica that is on its way down.
    """

    def __init__(self, replica_id: str = "", retry_after: float = 1.0):
        what = f" {replica_id!r}" if replica_id else ""
        super().__init__(f"replica{what} is draining; no new requests accepted")
        self.replica_id = replica_id
        self.retry_after = retry_after

_SOLVERS = {"fd": "FDNSSolver2D", "spectral": "SpectralNSSolver2D"}


def _make_solver(kind: str, n: int, reynolds: float):
    from .. import ns

    if kind not in _SOLVERS:
        raise ValueError(f"unknown solver kind {kind!r} (choose from {sorted(_SOLVERS)})")
    nu = 2.0 * np.pi / float(reynolds)
    return getattr(ns, _SOLVERS[kind])(n, nu)


def run_batch_inference(
    model,
    config,
    normalizer,
    windows: np.ndarray,
    mode: str,
    cycles: int,
    reynolds: list[float],
    sample_interval: float,
    solver_kind: str,
    model_name: str = "",
    trust: TrustPolicy | None = None,
) -> list[dict]:
    """The compute kernel of one coalesced batch, free of service state.

    Returns one ``{times, velocity, source}`` dict per request — plus a
    ``trust_bundle`` (diagnostics / uncertainty / trust report) when a
    :class:`~repro.trust.TrustPolicy` is supplied.  Fault injection at
    ``serve.worker.infer`` fires here, inside the worker that executes
    the batch.
    """
    windows = np.asarray(windows)
    n = windows.shape[-1]
    with obs.span("serve.batch", size=windows.shape[0], model=model_name, mode=mode):
        if _faults.ACTIVE:
            _faults.fire("serve.worker.infer", model=model_name, size=windows.shape[0])
        if mode == "fno":
            records = run_pure_fno_batched(
                model,
                windows,
                n_snapshots=cycles * config.n_out,
                n_fields=config.n_fields,
                normalizer=normalizer,
                sample_interval=sample_interval,
            )
        else:
            solvers = [_make_solver(solver_kind, n, r) for r in reynolds]
            hybrid_config = HybridConfig(
                n_in=config.n_in,
                n_out=config.n_out,
                n_fields=config.n_fields,
                sample_interval=sample_interval,
                n_cycles=cycles,
            )
            # Enforcement arms the TrustGuard inside hybrid windows, so
            # a physics-violating FNO block falls back to the PDE with
            # "trust:" provenance; report-only mode keeps today's guard.
            guard = (
                TrustGuard(policy=trust, n_fields=config.n_fields)
                if trust is not None and trust.enforce
                else None
            )
            records = run_hybrid_batched(
                model,
                solvers,
                windows,
                hybrid_config,
                normalizer=normalizer,
                **({"guard": guard} if guard is not None else {}),
            )
        results = [
            {"times": r.times, "velocity": r.velocity, "source": r.source}
            for r in records
        ]
        if trust is not None and config.n_fields == 2:
            length = 2.0 * np.pi
            with obs.span("serve.trust", size=len(results)):
                for i, record in enumerate(results):
                    n_init = sum(1 for s in record["source"] if s == "init")
                    bundle, velocity = assess_prediction(
                        model,
                        windows[i],
                        record["velocity"],
                        n_init=n_init,
                        dt=sample_interval * length,
                        viscosity=length / float(reynolds[i]),
                        policy=trust,
                        normalizer=normalizer,
                        length=length,
                    )
                    if bundle is not None:
                        record["velocity"] = velocity
                        record["trust_bundle"] = bundle
    return results


class InferenceService:
    """Long-running batched rollout service over a model registry.

    Parameters
    ----------
    registry:
        The :class:`ModelRegistry` models are served from.
    policy:
        Micro-batching :class:`BatchPolicy` (batch size / added latency /
        queue bound).
    n_workers:
        Worker threads draining the queue (0 = no workers, useful in
        tests that only exercise queueing/backpressure).
    default_mode:
        ``"hybrid"`` (stable, needs a PDE solver per request) or
        ``"fno"`` (pure roll-out; subject to the paper's blow-up result).
    breaker:
        :class:`repro.faults.CircuitBreaker` gating admission: after
        ``failure_threshold`` consecutive batch failures new requests
        are rejected fast with :class:`CircuitOpenError` (HTTP 503 +
        ``Retry-After``) until a half-open probe succeeds, instead of
        queueing work a sick backend will fail slowly.  Pass ``None``
        to disable.
    trust:
        :class:`repro.trust.TrustPolicy` attaching per-request physics
        diagnostics, ensemble uncertainty, and a trust score to every
        response (and ``/stats`` + ``/metrics``).  A second breaker
        (``serve.trust``) counts *untrusted* responses; with
        ``trust.enforce`` set, an open trust breaker forces ``fno``
        requests onto the hybrid path — fallback on predicted
        untrustworthiness, before anything goes non-finite.  Pass
        ``None`` to disable all trust computation (single flag read per
        batch).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        policy: BatchPolicy | None = None,
        n_workers: int = 2,
        default_mode: str = "hybrid",
        solver_kind: str = "fd",
        request_timeout: float = 60.0,
        breaker: CircuitBreaker | None = "default",
        trust: TrustPolicy | None = "default",
        replica_id: str = "",
    ):
        if default_mode not in ("hybrid", "fno"):
            raise ValueError("default_mode must be 'hybrid' or 'fno'")
        if solver_kind not in _SOLVERS:
            raise ValueError(f"unknown solver kind {solver_kind!r}")
        self.registry = registry
        self.policy = policy or BatchPolicy()
        self.default_mode = default_mode
        self.solver_kind = solver_kind
        self.request_timeout = float(request_timeout)
        if breaker == "default":
            breaker = CircuitBreaker(
                failure_threshold=5, reset_timeout=5.0, name="serve.workers"
            )
        self.breaker = breaker
        if trust == "default":
            trust = TrustPolicy()
        self.trust = trust
        self.trust_breaker = (
            CircuitBreaker(
                failure_threshold=trust.breaker_failures,
                reset_timeout=trust.breaker_reset_s,
                name="serve.trust",
            )
            if trust is not None
            else None
        )
        self.stats = ServerStats()
        self.queue = BatchQueue(self.policy)
        self.workers = WorkerPool(self.queue, self._execute, n_workers=n_workers)
        self._lifecycle_lock = threading.Lock()
        self._started = False
        # Fleet plumbing: the replica id travels in /healthz so a
        # gateway can tell restarted incarnations apart; draining stops
        # admission (503 + Retry-After) while in-flight work finishes.
        self.replica_id = str(replica_id)
        self._admission_lock = threading.Lock()
        self._draining = False
        self._inflight = 0

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "InferenceService":
        with self._lifecycle_lock:
            if not self._started:
                self.workers.start()
                self._started = True
        return self

    def stop(self) -> None:
        with self._lifecycle_lock:
            if self._started:
                self.workers.stop()
                self._started = False

    def __enter__(self) -> "InferenceService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- client API ----------------------------------------------------
    def predict(
        self,
        model: str,
        window,
        mode: str | None = None,
        cycles: int = 1,
        reynolds: float = 800.0,
        sample_interval: float = 0.02,
        timeout: float | None = None,
    ) -> dict:
        """Blocking rollout request; returns ``{times, velocity, source, ...}``.

        ``window`` is ``(n_in, n_fields, n, n)`` in physical units.
        ``cycles`` counts FNO applications (pure mode) or FNO+PDE cycles
        (hybrid mode).  Raises :class:`QueueFullError` when the service
        is saturated and :class:`CircuitOpenError` when the worker
        breaker has tripped — callers should retry after
        ``.retry_after`` in both cases.
        """
        mode = mode or self.default_mode
        if mode not in ("hybrid", "fno"):
            raise ValueError(f"unknown mode {mode!r} (choose 'hybrid' or 'fno')")
        if cycles < 1:
            raise ValueError("cycles must be >= 1")
        # Predicted-untrustworthiness fallback: while the trust breaker
        # is open (too many recent responses failed their physics
        # checks), pure-FNO traffic is served on the stable hybrid path
        # instead of being rejected — degraded latency, trusted physics.
        mode_forced = False
        if (
            mode == "fno"
            and self.trust is not None
            and self.trust.enforce
            and self.trust_breaker is not None
            and self.trust_breaker.state == "open"
        ):
            mode = "hybrid"
            mode_forced = True
        entry = self.registry.get(model)
        config = entry.config
        window = np.asarray(window, dtype=np.float64)  # the wire is float64
        expected = (config.n_in, config.n_fields)
        if window.ndim != 4 or window.shape[:2] != expected:
            raise ValueError(
                f"window must be (n_in={expected[0]}, n_fields={expected[1]}, n, n); "
                f"got {window.shape}"
            )
        if window.shape[2] != window.shape[3]:
            raise ValueError("window grids must be square")

        key = (
            str(entry.path),
            entry.fingerprint,
            mode,
            window.shape,
            int(cycles),
            round(float(reynolds), 9),
            round(float(sample_interval), 12),
            self.solver_kind,
        )
        request = PredictRequest(
            key=key,
            payload={
                "entry": entry,
                "window": window,
                "mode": mode,
                "cycles": int(cycles),
                "reynolds": float(reynolds),
                "sample_interval": float(sample_interval),
                "mode_forced": mode_forced,
            },
        )
        with self._admission_lock:
            if self._draining:
                self.stats.record_rejected()
                raise ServiceDraining(self.replica_id)
            self._inflight += 1
        try:
            if self.breaker is not None:
                try:
                    self.breaker.admit()
                except CircuitOpenError:
                    self.stats.record_rejected()
                    raise
            self.stats.record_submitted()
            try:
                self.queue.submit(request)
            except QueueFullError:
                self.stats.record_rejected()
                self.stats.set_queue_depth(self.queue.depth())
                raise
            self.stats.set_queue_depth(self.queue.depth())
            result = request.wait(
                timeout if timeout is not None else self.request_timeout
            )
            return result
        finally:
            with self._admission_lock:
                self._inflight -= 1

    # -- worker side ---------------------------------------------------
    def _execute(self, batch: list[PredictRequest]) -> None:
        """Run one coalesced batch (all requests share a batch key)."""
        started = time.perf_counter()
        first = batch[0].payload
        entry = first["entry"]
        config = entry.config
        mode = first["mode"]
        cycles = first["cycles"]
        dt = first["sample_interval"]
        windows = np.stack([request.payload["window"] for request in batch])

        # Stage latency: how long each request sat in the queue before a
        # worker picked up its batch.
        for request in batch:
            self.stats.record_queue_wait(started - request.enqueued_at)
        self.stats.set_queue_depth(self.queue.depth())

        reynolds = [request.payload["reynolds"] for request in batch]
        try:
            records = run_batch_inference(
                entry.model, config, entry.normalizer, windows,
                mode=mode, cycles=cycles, reynolds=reynolds,
                sample_interval=dt, solver_kind=self.solver_kind,
                model_name=entry.name,
                trust=self.trust,
            )
        except Exception as exc:
            # A failed batch degrades to per-request typed errors (the
            # waiting clients all get `exc`); consecutive failures trip
            # the admission breaker so new traffic fails fast instead.
            now = time.perf_counter()
            for request in batch:
                request.finish(error=exc)
                self.stats.record_completed(now - request.enqueued_at, error=True)
            self.stats.record_batch(len(batch), now - started)
            if self.breaker is not None:
                self.breaker.record_failure()
            return

        if self.breaker is not None:
            self.breaker.record_success()
        now = time.perf_counter()
        for request, record in zip(batch, records):
            bundle = record.get("trust_bundle") or {}
            report = bundle.get("trust")
            if report is not None:
                self.stats.record_trust(report["score"], report["trusted"])
                if self.trust_breaker is not None:
                    if report["trusted"]:
                        self.trust_breaker.record_success()
                    else:
                        self.trust_breaker.record_failure()
            request.finish(
                result={
                    "model": entry.name,
                    "mode": mode,
                    "mode_forced": request.payload.get("mode_forced", False),
                    "times": record["times"],
                    "velocity": record["velocity"],
                    "source": record["source"],
                    "uncertainty": bundle.get("uncertainty"),
                    "diagnostics": bundle.get("diagnostics"),
                    "trust": report,
                    "batch_size": len(batch),
                    "latency_s": now - request.enqueued_at,
                }
            )
            self.stats.record_completed(now - request.enqueued_at)
        self.stats.record_batch(len(batch), now - started)

    # -- fleet plumbing ------------------------------------------------
    @property
    def inflight(self) -> int:
        """Requests admitted but not yet answered (queued + executing)."""
        with self._admission_lock:
            return self._inflight

    @property
    def draining(self) -> bool:
        with self._admission_lock:
            return self._draining

    def drain(self) -> dict:
        """Stop admitting requests; in-flight work keeps running.

        Idempotent.  Returns the post-drain liveness snapshot so the
        caller (``POST /drain``, a rolling deploy) can poll ``inflight``
        down to zero before stopping the process.
        """
        with self._admission_lock:
            self._draining = True
        return self.healthz_snapshot()

    def healthz_snapshot(self) -> dict:
        """The ``/healthz`` payload: one cheap JSON shape a fleet gateway
        can poll per heartbeat — replica identity, admission state,
        load, both breakers, and the trust EWMA.  No latency summaries,
        no registry listings: those stay on ``/stats``."""
        with self._admission_lock:
            draining = self._draining
            inflight = self._inflight
        models = {}
        for name in self.registry.names():
            try:
                models[name] = str(self.registry.resolve(name))
            except ModelNotFound:  # alias raced an eviction/removal
                continue
        return {
            "status": "draining" if draining else "ok",
            "replica_id": self.replica_id,
            "pid": os.getpid(),
            "queue_depth": self.queue.depth(),
            "queue_limit": self.policy.max_queue,
            "inflight": inflight,
            "workers": self.workers.alive,
            "breaker": self.breaker.state if self.breaker is not None else None,
            "trust_breaker": (
                self.trust_breaker.state if self.trust_breaker is not None else None
            ),
            "trust": (
                {
                    "ewma": self.stats.trust_ewma(),
                    "reports": self.stats.n_trust_reports,
                    "flagged": self.stats.n_trust_flagged,
                }
                if self.trust is not None
                else None
            ),
            "models": models,
        }

    # -- introspection -------------------------------------------------
    def metrics_text(self) -> str:
        """Prometheus exposition for ``/metrics``: the service's own
        instruments followed by the process-wide obs registry (tensor-op,
        FFT and solver profiling counters, when profiling is active)."""
        self.stats.set_queue_depth(self.queue.depth())
        return self.stats.render_prometheus() + obs.render_prometheus()

    def stats_snapshot(self) -> dict:
        return self.stats.snapshot(
            queue_depth=self.queue.depth(),
            extra={
                "registry": self.registry.stats(),
                "compile": _compile.stats(),
                "policy": {
                    "max_batch": self.policy.max_batch,
                    "max_wait_ms": self.policy.max_wait_ms,
                    "max_queue": self.policy.max_queue,
                },
                "workers": self.workers.alive,
                # Constant: every kernel is batch-invariant.
                "deterministic": True,
                "default_mode": self.default_mode,
                "breaker": (
                    self.breaker.snapshot() if self.breaker is not None else None
                ),
                "trust": (
                    {
                        "policy": self.trust.to_dict(),
                        "breaker": (
                            self.trust_breaker.snapshot()
                            if self.trust_breaker is not None
                            else None
                        ),
                        **self.stats.trust_counts(),
                    }
                    if self.trust is not None
                    else None
                ),
            },
        )
