"""repro.serve: registry caching, micro-batching, determinism, backpressure, HTTP."""

import contextlib
import json
import os
import re
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core import (
    ChannelFNOConfig,
    Trainer,
    TrainingConfig,
    build_model,
    save_model,
)
from repro.data import FieldNormalizer
from repro.serve import (
    BatchPolicy,
    BatchQueue,
    InferenceService,
    ModelNotFound,
    ModelRegistry,
    PredictRequest,
    QueueFullError,
    make_server,
)
from repro.serve.httpd import decode_json, encode_json

GRID = 16
CFG = ChannelFNOConfig(
    n_in=2, n_out=1, n_fields=2, modes1=4, modes2=4, width=8, n_layers=2,
    projection_channels=16,
)
RNG = np.random.default_rng(7)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A tiny *trained* checkpoint (one epoch on synthetic pairs)."""
    rng = np.random.default_rng(0)
    model = build_model(CFG, rng=rng)
    X = rng.standard_normal((6, CFG.in_channels, GRID, GRID))
    Y = rng.standard_normal((6, CFG.out_channels, GRID, GRID))
    normalizer = FieldNormalizer(n_fields=2).fit(X)
    Trainer(model, TrainingConfig(epochs=1, batch_size=3, learning_rate=1e-3)).fit(
        normalizer.encode(X), normalizer.encode(Y)
    )
    path = tmp_path_factory.mktemp("serve") / "tiny.npz"
    save_model(path, model, CFG, normalizer)
    return path


@pytest.fixture(scope="module")
def stored_checkpoints(checkpoint, tmp_path_factory):
    """The trained weights stored three ways: as training writes them
    (float32 with a normalizer), widened to float64, and float32 without
    a normalizer, whose output no float64 statistics widen."""
    from repro.core import load_model

    model, _, normalizer = load_model(checkpoint)
    root = tmp_path_factory.mktemp("stored")
    wide = build_model(CFG, dtype=np.float64)
    wide.load_state_dict(model.state_dict())
    save_model(root / "f64.npz", wide, CFG, normalizer)
    save_model(root / "bare.npz", model, CFG)
    return {"float32": checkpoint, "float64": root / "f64.npz", "bare": root / "bare.npz"}


def window(seed=1, scale=0.1):
    return np.random.default_rng(seed).standard_normal((CFG.n_in, 2, GRID, GRID)) * scale


# ---------------------------------------------------------------------------


class TestRegistry:
    def test_loads_once_per_model(self, checkpoint):
        reg = ModelRegistry(capacity=2)
        reg.register("tiny", checkpoint)
        a = reg.get("tiny")
        b = reg.get("tiny")
        assert a is b
        assert reg.misses == 1 and reg.hits == 1

    def test_mtime_invalidation(self, checkpoint):
        reg = ModelRegistry(capacity=2)
        reg.register("tiny", checkpoint)
        first = reg.get("tiny")
        st = os.stat(checkpoint)
        os.utime(checkpoint, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
        second = reg.get("tiny")
        assert second is not first
        assert reg.invalidations == 1

    def test_lru_eviction(self, checkpoint, tmp_path):
        other = tmp_path / "other.npz"
        model = build_model(CFG, rng=np.random.default_rng(3))
        save_model(other, model, CFG)
        reg = ModelRegistry(capacity=1)
        reg.register("a", checkpoint)
        reg.register("b", other)
        reg.get("a")
        reg.get("b")  # evicts a
        assert reg.cached_names() == ["b"]
        reg.get("a")
        assert reg.misses == 3  # a was reloaded

    def test_explicit_evict(self, checkpoint):
        reg = ModelRegistry()
        reg.register("tiny", checkpoint)
        reg.get("tiny")
        assert reg.evict("tiny") is True
        assert reg.evict("tiny") is False  # already gone
        assert reg.cached_names() == []

    def test_unknown_name(self):
        with pytest.raises(ModelNotFound):
            ModelRegistry().get("no-such-model")

    def test_eviction_drops_compiled_plans(self, checkpoint):
        # Plan-cache coherence: a model leaving the registry (evict or
        # mtime invalidation) must take its compiled plans along, so a
        # reloaded checkpoint can never answer through a stale plan.
        from repro import compile as rc
        from repro.core.rollout import apply_channels

        rc.clear()
        reg = ModelRegistry(capacity=2)
        reg.register("tiny", checkpoint)
        entry = reg.get("tiny")
        x = np.random.default_rng(0).standard_normal(
            (1, CFG.in_channels, 16, 16)).astype(np.float32)
        apply_channels(entry.model, x)
        assert rc.plan_cache().plan_for(entry.model, x) is not None
        reg.evict("tiny")
        assert rc.plan_cache().plan_for(entry.model, x) is None

        entry = reg.get("tiny")
        apply_channels(entry.model, x)
        assert rc.stats()["plans"] == 1
        st = os.stat(checkpoint)
        os.utime(checkpoint, ns=(st.st_atime_ns, st.st_mtime_ns + 1_000_000))
        reg.get("tiny")  # fingerprint change reloads and fires the hook
        assert rc.plan_cache().plan_for(entry.model, x) is None
        rc.clear()

    def test_register_requires_existing_file(self, tmp_path):
        from repro.core import CheckpointError

        with pytest.raises(CheckpointError, match="does not exist"):
            ModelRegistry().register("x", tmp_path / "missing.npz")

    def test_path_without_alias(self, checkpoint):
        reg = ModelRegistry()
        entry = reg.get(str(checkpoint))
        assert entry.config == CFG

    def test_require_manifest_refuses_unverifiable_models(self, checkpoint, tmp_path):
        from repro.core import CheckpointError

        reg = ModelRegistry(require_manifest=True)
        reg.register("tiny", checkpoint)  # save_model wrote a sidecar
        assert reg.get("tiny").config == CFG

        bare = tmp_path / "bare.npz"
        bare.write_bytes(checkpoint.read_bytes())  # same model, no sidecar
        with pytest.raises(CheckpointError, match="no integrity manifest"):
            reg.register("bare", bare)

    def test_require_manifest_catches_tampering(self, checkpoint, tmp_path):
        from repro.core import CheckpointError
        from repro.utils.artifacts import manifest_path

        tampered = tmp_path / "tampered.npz"
        blob = bytearray(checkpoint.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        tampered.write_bytes(blob)
        manifest_path(tampered).write_text(manifest_path(checkpoint).read_text())
        with pytest.raises(CheckpointError, match="sha256|size"):
            ModelRegistry(require_manifest=True).register("bad", tampered)

    def test_list_models_reports_config(self, checkpoint):
        reg = ModelRegistry()
        reg.register("tiny", checkpoint)
        (row,) = reg.list_models()
        assert row["name"] == "tiny"
        assert row["kind"] == "channel_fno"
        assert row["n_parameters"] > 0
        assert row["cached"] is False
        # The listing names the stored dtype, and serving loads that dtype.
        assert row["dtype"] == "float32"
        assert reg.get("tiny").model.dtype == np.float32


class TestBatchQueue:
    def _req(self, key=("k",)):
        return PredictRequest(key=key, payload={})

    def test_coalesces_same_key(self):
        q = BatchQueue(BatchPolicy(max_batch=4, max_wait_ms=0, max_queue=16))
        for _ in range(3):
            q.submit(self._req())
        batch = q.next_batch()
        assert len(batch) == 3
        assert all(r.batch_size == 3 for r in batch)

    def test_respects_max_batch(self):
        q = BatchQueue(BatchPolicy(max_batch=2, max_wait_ms=0, max_queue=16))
        for _ in range(5):
            q.submit(self._req())
        assert len(q.next_batch()) == 2
        assert len(q.next_batch()) == 2
        assert len(q.next_batch()) == 1

    def test_does_not_mix_keys(self):
        q = BatchQueue(BatchPolicy(max_batch=8, max_wait_ms=0, max_queue=16))
        q.submit(self._req(key=("a",)))
        q.submit(self._req(key=("b",)))
        q.submit(self._req(key=("a",)))
        batch = q.next_batch()
        assert len(batch) == 2 and all(r.key == ("a",) for r in batch)
        assert [r.key for r in q.next_batch()] == [("b",)]

    def test_backpressure(self):
        q = BatchQueue(BatchPolicy(max_batch=2, max_wait_ms=0, max_queue=2))
        q.submit(self._req())
        q.submit(self._req())
        with pytest.raises(QueueFullError) as excinfo:
            q.submit(self._req())
        assert excinfo.value.retry_after > 0

    def test_waits_for_companions(self):
        q = BatchQueue(BatchPolicy(max_batch=2, max_wait_ms=500, max_queue=16))
        q.submit(self._req())

        def late_submit():
            q.submit(self._req())

        timer = threading.Timer(0.05, late_submit)
        timer.start()
        try:
            batch = q.next_batch()
        finally:
            timer.cancel()
        assert len(batch) == 2

    def test_close_unblocks(self):
        q = BatchQueue(BatchPolicy())
        q.close()
        assert q.next_batch() is None
        with pytest.raises(RuntimeError):
            q.submit(self._req())


# ---------------------------------------------------------------------------


class TestService:
    def test_fno_rollout_shape(self, checkpoint):
        reg = ModelRegistry()
        reg.register("tiny", checkpoint)
        with InferenceService(reg, n_workers=1) as svc:
            out = svc.predict("tiny", window(), mode="fno", cycles=3)
        assert out["velocity"].shape == (CFG.n_in + 3 * CFG.n_out, 2, GRID, GRID)
        assert out["source"] == ["init"] * CFG.n_in + ["fno"] * 3

    def test_hybrid_is_default_mode(self, checkpoint):
        reg = ModelRegistry()
        reg.register("tiny", checkpoint)
        with InferenceService(reg, n_workers=1) as svc:
            out = svc.predict("tiny", window(), cycles=1, sample_interval=0.02)
        assert out["mode"] == "hybrid"
        assert out["source"] == ["init", "init", "fno", "pde", "pde"]

    def test_rejects_bad_window(self, checkpoint):
        reg = ModelRegistry()
        reg.register("tiny", checkpoint)
        with InferenceService(reg, n_workers=1) as svc:
            with pytest.raises(ValueError, match="window must be"):
                svc.predict("tiny", np.zeros((3, 2, GRID, GRID)))

    def test_concurrent_requests_batch_and_match_single(self, checkpoint):
        """The tentpole invariant: coalescing changes throughput, not bits."""
        n_clients = 8
        windows = [window(seed=100 + i) for i in range(n_clients)]

        reg_single = ModelRegistry()
        reg_single.register("tiny", checkpoint)
        with InferenceService(
            reg_single, BatchPolicy(max_batch=1, max_wait_ms=0, max_queue=64), n_workers=1
        ) as svc:
            singles = [svc.predict("tiny", w, mode="fno", cycles=2) for w in windows]

        reg = ModelRegistry()
        reg.register("tiny", checkpoint)
        svc = InferenceService(
            reg, BatchPolicy(max_batch=4, max_wait_ms=100, max_queue=64), n_workers=1
        )
        results = [None] * n_clients
        errors = []

        def client(i):
            try:
                results[i] = svc.predict("tiny", windows[i], mode="fno", cycles=2)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        with svc:
            threads = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert not errors
        # (a) bit-for-bit equality with the unbatched responses
        for single, batched in zip(singles, results):
            assert np.array_equal(single["velocity"], batched["velocity"])
            assert np.array_equal(single["times"], batched["times"])
        # (b) the batch-size histogram proves coalescing happened
        assert svc.stats.max_batch_seen() >= 2
        assert sum(results[i]["batch_size"] > 1 for i in range(n_clients)) >= 2

    def test_backpressure_is_an_error_not_a_hang(self, checkpoint):
        reg = ModelRegistry()
        reg.register("tiny", checkpoint)
        svc = InferenceService(
            reg, BatchPolicy(max_batch=2, max_wait_ms=0, max_queue=2), n_workers=0
        )
        # No workers: fill the bounded queue, then the next submit must fail fast.
        entry = reg.get("tiny")
        for _ in range(2):
            svc.queue.submit(PredictRequest(key=("k",), payload={"entry": entry}))
        with pytest.raises(QueueFullError):
            svc.predict("tiny", window(), mode="fno")
        assert svc.stats.n_rejected == 1

    def test_stats_snapshot_shape(self, checkpoint):
        reg = ModelRegistry()
        reg.register("tiny", checkpoint)
        with InferenceService(reg, n_workers=1) as svc:
            svc.predict("tiny", window(), mode="fno")
            snap = svc.stats_snapshot()
        assert snap["requests"]["completed"] == 1
        assert snap["batch_histogram"] == {"1": 1}
        assert {"count", "mean", "p50", "p95", "max"} <= set(snap["latency_s"])
        assert snap["queue_depth"] == 0
        assert snap["registry"]["cached"] == 1

    def test_stats_json_stays_backward_compatible(self, checkpoint):
        """Regression: the pre-obs /stats payload shape must not change.

        ServerStats is now built on repro.obs metrics; clients written
        against the original endpoint still rely on these exact keys,
        their types, and integer request counters.
        """
        reg = ModelRegistry()
        reg.register("tiny", checkpoint)
        with InferenceService(reg, n_workers=1) as svc:
            svc.predict("tiny", window(), mode="fno")
            snap = svc.stats_snapshot()
        legacy_keys = {
            "requests", "batch_histogram", "latency_s", "batch_exec_s",
            "queue_depth", "registry", "policy", "workers",
            "deterministic", "default_mode",
        }
        assert legacy_keys <= set(snap)
        assert set(snap["requests"]) == {"submitted", "completed", "errors", "rejected"}
        assert all(isinstance(v, int) for v in snap["requests"].values())
        assert all(isinstance(k, str) for k in snap["batch_histogram"])
        for section in ("latency_s", "batch_exec_s"):
            assert set(snap[section]) == {"count", "mean", "p50", "p95", "max"}
        # And the whole payload is JSON-serialisable, as /stats requires.
        json.dumps(snap)

    def test_stats_expose_queue_wait_stage_latency(self, checkpoint):
        reg = ModelRegistry()
        reg.register("tiny", checkpoint)
        with InferenceService(reg, n_workers=1) as svc:
            svc.predict("tiny", window(), mode="fno")
            snap = svc.stats_snapshot()
        assert snap["queue_wait_s"]["count"] == 1
        assert 0.0 <= snap["queue_wait_s"]["mean"] <= snap["latency_s"]["mean"]


# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _serving(svc):
    """``svc`` behind a real HTTP server; yields the base URL."""
    server = make_server(svc, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture()
def http_service(checkpoint):
    reg = ModelRegistry()
    reg.register("tiny", checkpoint)
    svc = InferenceService(
        reg, BatchPolicy(max_batch=4, max_wait_ms=5, max_queue=8), n_workers=1
    ).start()
    with _serving(svc) as base:
        yield svc, base
    svc.stop()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def _post_raw(url, payload, headers=None):
    """POST a dict (JSON-encoded here) or raw bytes; the body comes back raw."""
    data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json", **(headers or {})}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, resp.read(), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, err.read(), dict(err.headers)


def _post(url, payload, headers=None):
    code, raw, response_headers = _post_raw(url, payload, headers)
    return code, json.loads(raw), response_headers


class TestHTTP:
    def test_healthz(self, http_service):
        """/healthz is the fleet health shape: one cheap JSON document
        carrying replica identity, admission state, load, and breakers."""
        _, base = http_service
        code, body = _get(f"{base}/healthz")
        assert code == 200
        assert body["status"] == "ok"
        assert {"replica_id", "pid", "queue_depth", "queue_limit", "inflight",
                "workers", "breaker", "trust_breaker", "trust",
                "models"} <= set(body)
        assert body["breaker"] == "closed"
        assert body["queue_depth"] == 0 and body["inflight"] == 0
        assert body["models"].keys() == {"tiny"}

    def test_drain_rejects_new_requests_with_503(self, http_service):
        svc, base = http_service
        code, body, _ = _post(f"{base}/drain", {})
        assert code == 200 and body["status"] == "draining"
        code, body = _get(f"{base}/healthz")
        assert body["status"] == "draining"
        code, body, headers = _post(
            f"{base}/predict",
            {"model": "tiny", "window": window().tolist(), "mode": "fno"},
        )
        assert code == 503 and "draining" in body["error"]
        assert float(headers["Retry-After"]) > 0
        assert svc.inflight == 0

    @pytest.mark.parametrize(
        "mode, stored, via_gateway",
        [pytest.param(mode, stored, via_gateway, id="-".join(
            [mode] + [stored] * (stored != "float32") + ["gateway"] * via_gateway))
         for stored in ("float32", "float64", "bare")
         for mode in ("fno", "hybrid")
         for via_gateway in (False, True)],
    )
    def test_predict_roundtrip_matches_direct_call(
        self, stored_checkpoints, mode, stored, via_gateway
    ):
        """The serving equivalence matrix.

        Every cell of {compiled, eager} x {batch 1, a coalesced batch of
        B} x {in-process, HTTP} (or, with ``via_gateway``, gateway ->
        replica) answers each request with the direct batch-1 call's
        velocity and times (bit for bit), source and trust report.  The
        model is served in its stored dtype and every response velocity
        is float64.
        """
        from types import SimpleNamespace

        from repro import compile as rc
        from repro.fleet import Gateway

        B = 3
        request = {"mode": mode, "cycles": 2, "sample_interval": 0.02}
        windows = [window(seed=5 + i) for i in range(B)]

        def service(max_batch):
            reg = ModelRegistry()
            reg.register("tiny", stored_checkpoints[stored])
            # A batch of B dispatches as soon as it is full, never on the wait.
            policy = BatchPolicy(max_batch=max_batch, max_wait_ms=30_000, max_queue=64)
            return InferenceService(reg, policy, n_workers=1)

        def send(svc, base, w):
            if base is None:
                return svc.predict("tiny", w, **request)
            code, body, _ = _post(
                f"{base}/predict", {"model": "tiny", "window": w.tolist(), **request}
            )
            assert code == 200, body
            return body

        with service(1) as svc:
            direct = [svc.predict("tiny", w, **request) for w in windows]
            served = svc.registry.get("tiny").model
        assert served.dtype == (np.float64 if stored == "float64" else np.float32)
        assert all(d["velocity"].dtype == np.float64 for d in direct)
        if stored == "bare":
            # The float32 model's snapshots reach the response widened exactly.
            v = direct[0]["velocity"][[s == "fno" for s in direct[0]["source"]]]
            assert v.size and np.array_equal(v.astype(np.float32).astype(np.float64), v)

        was_enabled = rc.enabled()
        cells = 0
        try:
            for batch in (1, B):
                with contextlib.ExitStack() as stack:
                    svc = stack.enter_context(service(batch))
                    replica = stack.enter_context(_serving(svc))
                    bases = (None, replica)
                    if via_gateway:
                        # The gateway polls health once, at start.  This tiny
                        # model's pure-FNO trust scores (~0.34) pull the
                        # replica's trust EWMA under the gateway's 0.5
                        # ejection bar, so a later poll would eject the only
                        # replica.
                        gateway = stack.enter_context(Gateway(
                            SimpleNamespace(urls=lambda: {"r0": replica}),
                            poll_interval=3600.0,
                        ))
                        bases = (gateway.base_url(),)
                    for compiled in (True, False):
                        rc.set_enabled(compiled)
                        for base in bases:
                            got, errors = [None] * batch, []

                            def client(i, base=base, got=got, errors=errors):
                                try:
                                    got[i] = send(svc, base, windows[i])
                                except Exception as exc:  # noqa: BLE001
                                    errors.append(exc)

                            threads = [threading.Thread(target=client, args=(i,))
                                       for i in range(batch)]
                            for t in threads:
                                t.start()
                            for t in threads:
                                t.join(timeout=60)
                            assert not errors, errors
                            for out, want in zip(got, direct):
                                assert out["batch_size"] == batch
                                assert (np.asarray(out["velocity"]).tobytes()
                                        == want["velocity"].tobytes())
                                assert np.asarray(out["times"]).tobytes() == want["times"].tobytes()
                                assert out["source"] == want["source"]
                                assert out["trust"] is not None and out["trust"] == want["trust"]
                            cells += 1
                    assert svc.stats.max_batch_seen() == batch
        finally:
            rc.set_enabled(was_enabled)
        assert cells == (4 if via_gateway else 8)

    def test_response_tail_is_latency(self, http_service):
        _, base = http_service
        code, raw, _ = _post_raw(
            f"{base}/predict", {"model": "tiny", "window": window().tolist(), "mode": "fno"}
        )
        assert code == 200
        assert re.search(rb'"latency_s": [-+0-9.eE]+}$', raw)

    def test_nan_request_is_accepted_and_answered_with_nan_tokens(self, http_service):
        _, base = http_service
        w = window(seed=8)
        w[0, 0, 0, 0] = np.nan
        code, raw, _ = _post_raw(
            f"{base}/predict", {"model": "tiny", "window": w.tolist(), "mode": "fno"}
        )
        assert code == 200
        assert raw.startswith(b'{"model": "tiny", ') and b'"velocity": [[[[NaN, ' in raw
        assert np.isnan(json.loads(raw)["velocity"][0][0][0][0])

    def test_gateway_forwards_its_request_id_to_the_replica(self, http_service):
        from types import SimpleNamespace

        from repro.fleet import Gateway

        _, base = http_service
        seen = []
        with Gateway(SimpleNamespace(urls=lambda: {"r0": base})) as gateway:
            transport = gateway.router.transport

            def recording(url, body, headers, timeout):
                status, replica_headers, data = transport(url, body, headers, timeout=timeout)
                seen.append(replica_headers.get("X-Request-Id"))
                return status, replica_headers, data

            gateway.router.transport = recording
            code, _, headers = _post(
                f"{gateway.base_url()}/predict",
                {"model": "tiny", "window": window().tolist(), "mode": "fno"},
                headers={"X-Request-Id": "req-42"},
            )
        assert code == 200 and headers["X-Request-Id"] == "req-42"
        assert seen == ["req-42"]  # the replica itself answered with the id

    def test_predict_unknown_model_404(self, http_service):
        _, base = http_service
        code, body, _ = _post(f"{base}/predict", {"model": "nope", "window": [[[[0.0]]]]})
        assert code == 404 and "nope" in body["error"]

    def test_predict_bad_window_400(self, http_service):
        _, base = http_service
        code, body, _ = _post(f"{base}/predict", {"model": "tiny", "window": [1, 2, 3]})
        assert code == 400

    def test_models_and_evict(self, http_service):
        svc, base = http_service
        svc.predict("tiny", window(), mode="fno")
        code, body = _get(f"{base}/models")
        assert code == 200
        (row,) = body["models"]
        assert row["name"] == "tiny" and row["cached"] is True
        code, body, _ = _post(f"{base}/models/evict", {"name": "tiny"})
        assert code == 200 and body["evicted"] is True
        assert svc.registry.cached_names() == []

    def test_stats_endpoint(self, http_service):
        svc, base = http_service
        svc.predict("tiny", window(), mode="fno")
        code, body = _get(f"{base}/stats")
        assert code == 200
        assert body["requests"]["completed"] >= 1
        assert "batch_histogram" in body and "latency_s" in body

    def test_metrics_endpoint_renders_prometheus(self, http_service):
        svc, base = http_service
        svc.predict("tiny", window(), mode="fno")
        with urllib.request.urlopen(f"{base}/metrics", timeout=10) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            text = resp.read().decode()
        assert "# TYPE repro_serve_requests_completed_total counter" in text
        assert "repro_serve_requests_completed_total 1" in text
        assert 'repro_serve_batch_size_total{size="1"} 1' in text
        assert "repro_serve_queue_wait_seconds_count 1" in text
        assert "repro_serve_queue_depth 0" in text

    def test_queue_full_returns_503_with_retry_after(self, checkpoint):
        reg = ModelRegistry()
        reg.register("tiny", checkpoint)
        svc = InferenceService(
            reg, BatchPolicy(max_batch=2, max_wait_ms=0, max_queue=1), n_workers=0
        )
        entry = reg.get("tiny")
        svc.queue.submit(PredictRequest(key=("k",), payload={"entry": entry}))
        with _serving(svc) as base:
            code, body, headers = _post(
                f"{base}/predict",
                {"model": "tiny", "window": window().tolist(), "mode": "fno"},
            )
        assert code == 503
        assert "Retry-After" in headers
        assert body["retry_after_s"] > 0

    def test_unknown_route_404(self, http_service):
        _, base = http_service
        try:
            code, _ = _get(f"{base}/nope")
        except urllib.error.HTTPError as err:
            code = err.code
        assert code == 404


class TestCodec:
    def test_payload_without_float_arrays_is_byte_identical_to_json_dumps(self):
        payload = {"a": 1, "b": [1.5, None], "c": {"d": np.float64(0.1)}, "e": np.arange(3)}
        native = {"a": 1, "b": [1.5, None], "c": {"d": 0.1}, "e": [0, 1, 2]}
        assert encode_json(payload) == json.dumps(native).encode()

    def test_decode_falls_back_where_orjson_differs_from_the_stdlib(self):
        for raw in (b'{"w": [NaN, -Infinity]}',
                    b'{"cycles": 123456789012345678901234567890}',
                    b'{"s": "\\ud800"}'):
            assert repr(decode_json(raw)) == repr(json.loads(raw))
        with pytest.raises(ValueError):
            decode_json(b'{"model": ')


# ---------------------------------------------------------------------------
# trust layer: the extended /predict and /stats schema (regression pins)
# ---------------------------------------------------------------------------


class TestTrustServing:
    """Every response must carry the trust bundle; defaults must not
    change served bits (report-only enforcement)."""

    DIAG_KEYS = {"finite", "rms_divergence", "pde_residual", "spectrum_drift",
                 "dtype", "grid"}
    UQ_KEYS = {"members", "sigma", "seed", "spread_rms", "spread_max",
               "relative_spread"}
    TRUST_KEYS = {"score", "trusted", "components", "reason"}

    def _service(self, checkpoint, **kwargs):
        reg = ModelRegistry()
        reg.register("tiny", checkpoint)
        return InferenceService(reg, n_workers=1, **kwargs)

    def test_predict_carries_the_bundle_in_both_modes(self, checkpoint):
        with self._service(checkpoint) as svc:
            for mode in ("fno", "hybrid"):
                out = svc.predict("tiny", window(), mode=mode, cycles=1,
                                  sample_interval=0.02)
                assert out["mode_forced"] is False
                assert self.DIAG_KEYS <= set(out["diagnostics"])
                assert set(out["uncertainty"]) == self.UQ_KEYS
                assert set(out["trust"]) == self.TRUST_KEYS
                assert 0.0 <= out["trust"]["score"] <= 1.0
                assert out["diagnostics"]["dtype"] == str(out["velocity"].dtype)
                assert out["diagnostics"]["grid"] == GRID
                json.dumps({k: out[k] for k in
                            ("diagnostics", "uncertainty", "trust", "mode_forced")})

    def test_default_policy_does_not_alter_served_bits(self, checkpoint):
        from repro.trust import TrustPolicy

        w = window(seed=21)
        with self._service(checkpoint, trust=None) as svc:
            bare = svc.predict("tiny", w, mode="fno", cycles=2)
        with self._service(checkpoint) as svc:
            assessed = svc.predict("tiny", w, mode="fno", cycles=2)
        assert np.array_equal(bare["velocity"], assessed["velocity"])
        # report-only is the default: assessment must never enforce
        assert TrustPolicy().enforce is False

    def test_trust_none_disables_the_bundle(self, checkpoint):
        with self._service(checkpoint, trust=None) as svc:
            out = svc.predict("tiny", window(), mode="fno")
            snap = svc.stats_snapshot()
        assert out["diagnostics"] is None
        assert out["uncertainty"] is None
        assert out["trust"] is None
        assert out["mode_forced"] is False
        assert snap["trust"] is None

    def test_bundle_is_deterministic(self, checkpoint):
        w = window(seed=33)
        outs = []
        for _ in range(2):
            with self._service(checkpoint) as svc:
                outs.append(svc.predict("tiny", w, mode="fno", cycles=1))
        assert outs[0]["uncertainty"] == outs[1]["uncertainty"]
        assert outs[0]["diagnostics"] == outs[1]["diagnostics"]
        assert outs[0]["trust"] == outs[1]["trust"]

    def test_stats_trust_section_schema(self, checkpoint):
        with self._service(checkpoint) as svc:
            svc.predict("tiny", window(), mode="fno")
            snap = svc.stats_snapshot()
        trust = snap["trust"]
        assert {"policy", "breaker", "reports", "flagged", "score"} <= set(trust)
        assert trust["reports"] == 1
        assert trust["breaker"]["state"] == "closed"
        assert trust["policy"]["enforce"] is False
        json.dumps(snap)

    def test_http_predict_and_stats_expose_trust(self, http_service):
        _, base = http_service
        code, body, _ = _post(
            f"{base}/predict",
            {"model": "tiny", "window": window(seed=9).tolist(), "mode": "fno"},
        )
        assert code == 200
        assert self.TRUST_KEYS == set(body["trust"])
        assert self.DIAG_KEYS <= set(body["diagnostics"])
        assert set(body["uncertainty"]) == self.UQ_KEYS
        assert body["mode_forced"] is False

        code, stats = _get(f"{base}/stats")
        assert code == 200
        assert stats["trust"]["reports"] >= 1

    def test_metrics_expose_trust_gauges(self, checkpoint):
        with self._service(checkpoint) as svc:
            svc.predict("tiny", window(), mode="fno")
            text = svc.stats.render_prometheus()
        assert "repro_serve_trust_reports_total 1" in text
        assert "repro_serve_trust_score" in text
