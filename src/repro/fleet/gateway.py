"""Health-routing HTTP gateway: one stable endpoint over N replicas.

Routing is three orthogonal pieces, composed in :class:`GatewayRouter`
(pure logic, fully testable without sockets):

* placement — the consistent :class:`~repro.fleet.hashring.HashRing`
  maps a request's route key to a preference-ordered replica list;
* admission — :class:`~repro.fleet.health.FleetHealth` keeps one
  :class:`~repro.faults.CircuitBreaker` per replica (open replicas are
  skipped, a half-open one gets a single probe request);
* retries — one *attempt* walks the preference list over admitted
  replicas; connection failures fail over to the ring successor
  immediately, 503s (queue-full, draining, breaker-open) carry their
  ``Retry-After`` into the next attempt's pause via
  :func:`repro.faults.call_with_retry`.

Every request is journaled (``submitted`` → ``responded``/``failed``)
in an append-only :class:`RequestJournal`, written through
:class:`repro.utils.journal.Journal`; the ``replica_kill`` chaos scenario
replays the journal to prove exactly-once response semantics across
SIGKILLs.  Re-execution on another replica is safe
because ``/predict`` is pure: same checkpoint + same window → same
snapshots (the repo's determinism contract).

:class:`Gateway` wraps the router in a ``ThreadingHTTPServer`` with a
background health poller, and exposes ``/predict``, ``/healthz``,
``/fleet/status``, ``/fleet/deploy`` and ``/metrics``.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .. import obs
from ..faults.policy import RetryPolicy, call_with_retry
from ..utils.journal import Journal, read_records
from .hashring import HashRing
from .health import FleetHealth, HealthPolicy

__all__ = ["ReplicaUnavailable", "RequestJournal", "GatewayRouter", "Gateway",
           "http_transport"]

_ROUTER_RETRY = RetryPolicy(attempts=4, backoff=0.1, factor=2.0,
                            max_backoff=1.0, retry_on=())


class ReplicaUnavailable(RuntimeError):
    """No admitted replica produced a response for this attempt."""

    def __init__(self, detail: str, retry_after: float = 0.1):
        super().__init__(f"no replica available: {detail}")
        self.retry_after = max(float(retry_after), 0.0)


class RequestJournal:
    """Append-only request log proving exactly-once response semantics.

    Events are ``{"event", "id", ...}`` dicts; with a ``path`` they are
    additionally persisted as ``"type": "request"`` records of a
    :class:`~repro.utils.journal.Journal` (one write each, not fsynced,
    so a crashed gateway still yields a replayable journal).  Each event is
    folded into the verdict as it arrives: memory holds one outstanding
    count per in-flight id plus the ids already answered more often
    than they were submitted, never the log itself.  :meth:`verify` reports the
    no-loss/no-duplication verdict the chaos harness asserts on.
    """

    def __init__(self, path=None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._outstanding: dict[str, int] = {}
        self._duplicated: set[str] = set()
        self._counts = {"submitted": 0, "responded": 0, "failed": 0}
        # The log must outlive a killed gateway, which one O_APPEND write
        # per record already ensures; an fsync would put the disk's flush
        # latency, heavy-tailed on a shared disk, on every routed request
        # twice.
        self._log = (Journal(self.path, fsync=False)
                     if self.path is not None else None)

    def _fold(self, event: str, rid: str) -> None:
        """Account one event (caller holds the lock)."""
        if event not in self._counts:
            return
        self._counts[event] += 1
        if event == "submitted":
            self._outstanding[rid] = self._outstanding.get(rid, 0) + 1
            return
        left = self._outstanding.get(rid, 0) - 1
        if left > 0:
            self._outstanding[rid] = left
        elif left == 0:
            del self._outstanding[rid]
        else:
            self._duplicated.add(rid)

    def record(self, event: str, request_id: str, **extra) -> None:
        entry = {"event": event, "id": str(request_id), **extra}
        with self._lock:
            self._fold(event, entry["id"])
            if self._log is not None:
                self._log.append({"type": "request", **entry})

    def close(self) -> None:
        with self._lock:
            if self._log is not None:
                self._log.close()

    @staticmethod
    def load(path) -> "RequestJournal":
        """Replay a persisted journal.  A torn final line (a gateway
        killed mid-write) is dropped; a malformed line before it raises
        :class:`~repro.utils.journal.JournalError`."""
        journal = RequestJournal()
        for entry in read_records(path, required=("event", "id")):
            journal._fold(entry["event"], str(entry["id"]))
        return journal

    def verify(self) -> dict:
        """No request lost (0 responses) or duplicated (>1 terminal).

        ``submitted``/``responded``/``failed`` count events, so a client
        that reuses an ``X-Request-Id`` counts once per submission.
        """
        with self._lock:
            lost = sorted(self._outstanding)
            duplicated = sorted(self._duplicated)
            counts = dict(self._counts)
        return {
            **counts,
            "lost": lost,
            "duplicated": duplicated,
            "exactly_once": not lost and not duplicated and not counts["failed"],
        }


def http_transport(url: str, body: bytes, headers: dict,
                   timeout: float = 30.0):
    """POST ``body`` to ``url``; return ``(status, headers, body)``.

    4xx/5xx come back as ordinary statuses (no exception); only
    connection-level failures raise ``OSError`` — exactly the split the
    router needs to tell "replica answered badly" from "replica gone".
    """
    req = urllib.request.Request(url, data=body, method="POST",
                                 headers={"Content-Type": "application/json",
                                          **headers})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, dict(exc.headers or {}), exc.read()
    except urllib.error.URLError as exc:
        raise OSError(f"connect {url}: {exc.reason}") from exc


def http_get_json(url: str, timeout: float = 5.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return json.loads(resp.read())


class GatewayRouter:
    """Consistent-hash + health-gated routing with bounded failover.

    ``endpoints`` is a zero-arg callable returning the live routing
    table ``{replica_id: base_url}`` (typically ``coordinator.urls``);
    ``transport`` has :func:`http_transport`'s signature so tests can
    swap in an in-memory fake.
    """

    def __init__(self, endpoints, health: FleetHealth | None = None,
                 journal: RequestJournal | None = None,
                 retry: RetryPolicy = _ROUTER_RETRY, vnodes: int = 64,
                 transport=http_transport, request_timeout: float = 30.0,
                 sleep=time.sleep):
        self.endpoints = endpoints
        self.health = health or FleetHealth()
        self.journal = journal or RequestJournal()
        self.retry = retry
        from dataclasses import replace

        self._retry_policy = replace(retry, retry_on=(ReplicaUnavailable,))
        self.transport = transport
        self.request_timeout = float(request_timeout)
        self._sleep = sleep
        self._ring = HashRing(vnodes=vnodes)
        self._ring_lock = threading.Lock()
        registry = obs.metrics_registry()
        self._m_requests = registry.counter("fleet_gateway_requests_total")
        self._m_failovers = registry.counter("fleet_gateway_failovers_total")
        self._m_unrouted = registry.counter("fleet_gateway_unrouted_total")

    # -- membership ----------------------------------------------------
    def _sync_ring(self, ids) -> None:
        with self._ring_lock:
            current = self._ring.nodes()
            for rid in set(ids) - current:
                self._ring.add(rid)
                self.health.add(rid)
            for rid in current - set(ids):
                # A departed replica (killed, restarting) is not routable:
                # count it as a failed poll, so a returning replica is
                # readmitted through the breaker's half-open probe.
                self._ring.remove(rid)
                self.health.observe_error(rid)

    def preference(self, route_key: str) -> list[str]:
        self._sync_ring(self.endpoints().keys())
        with self._ring_lock:
            return self._ring.preference(route_key)

    # -- routing -------------------------------------------------------
    def _attempt(self, route_key: str, body: bytes, headers: dict,
                 tried: set) -> tuple[str, int, dict, bytes]:
        """One walk of the preference list; raises ReplicaUnavailable."""
        urls = self.endpoints()
        prefs = [rid for rid in self.preference(route_key) if rid in urls]
        if not prefs:
            raise ReplicaUnavailable("fleet has no live replicas")
        order = [rid for rid in prefs if rid not in tried] or prefs
        detail, hint = "all replicas ejected or busy", 0.1
        for rid in order:
            if not self.health.admit(rid):
                continue
            tried.add(rid)
            try:
                status, resp_headers, data = self.transport(
                    urls[rid] + "/predict", body, headers,
                    timeout=self.request_timeout,
                )
            except OSError as exc:
                # Connection-level failure: the replica is gone (killed,
                # restarting).  Open its breaker and fail over inside this
                # same attempt — no sleep, the ring successor is right there.
                self.health.record_result(rid, False)
                self._m_failovers.inc()
                detail = f"{rid}: {exc}"
                continue
            if status == 503:
                # Backpressure (queue full / draining / breaker open):
                # the replica is alive but refusing; honor its hint on
                # the *next* attempt rather than ejecting it.
                self.health.record_result(rid, True)
                self._m_failovers.inc()
                try:
                    hint = float(resp_headers.get("Retry-After", hint))
                except (TypeError, ValueError):  # repro: ignore[RPR005] -- malformed Retry-After header: keep the previous hint
                    pass
                detail = f"{rid}: 503"
                continue
            self.health.record_result(rid, True)
            return rid, status, resp_headers, data
        raise ReplicaUnavailable(detail, retry_after=hint)

    def predict(self, body: bytes, route_key: str,
                request_id: str) -> tuple[int, dict, bytes]:
        """Route one /predict body; journal exactly one terminal event."""
        self._m_requests.inc()
        self.journal.record("submitted", request_id, key=str(route_key))
        tried: set = set()
        try:
            replica, status, resp_headers, data = call_with_retry(
                self._attempt, route_key, body,
                {"X-Request-Id": request_id}, tried,
                policy=self._retry_policy, sleep=self._sleep,
                label="fleet.predict",
            )
        except ReplicaUnavailable as exc:
            self._m_unrouted.inc()
            self.journal.record("failed", request_id, error=str(exc))
            payload = json.dumps(
                {"error": str(exc), "retry_after_s": exc.retry_after}
            ).encode()
            return 503, {"Retry-After": f"{exc.retry_after:g}"}, payload
        self.journal.record("responded", request_id, replica=replica,
                            status=int(status))
        return status, resp_headers, data

    # -- views ---------------------------------------------------------
    def status(self) -> dict:
        self._sync_ring(self.endpoints().keys())
        health = self.health.snapshot()
        registry = obs.metrics_registry()
        for rid, snap in health.items():
            registry.gauge("fleet_replica_health_score",
                           labels={"replica": rid}).set(snap["score"])
        return {
            "replicas": health,
            "admitted": self.health.admitted_ids(),
            "endpoints": dict(sorted(self.endpoints().items())),
            "journal": self.journal.verify(),
        }


class _GatewayHandler(BaseHTTPRequestHandler):
    server_version = "repro-fleet-gateway/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def gateway(self) -> "Gateway":
        return self.server.gateway  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str,
              headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            if name.lower() not in ("content-type", "content-length",
                                    "transfer-encoding", "connection",
                                    "server", "date"):
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict,
                   headers: dict | None = None) -> None:
        self._send(status, json.dumps(payload).encode(), "application/json",
                   headers)

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        if self.path == "/healthz":
            status = self.gateway.router.status()
            self._send_json(200, {
                "status": "ok" if status["admitted"] else "degraded",
                "role": "gateway",
                "replicas": {rid: snap["state"]
                             for rid, snap in status["replicas"].items()},
            })
        elif self.path == "/fleet/status":
            status = self.gateway.router.status()
            status["coordinator"] = self.gateway.coordinator.status()["replicas"]
            self._send_json(200, status)
        elif self.path == "/metrics":
            self._send(200, obs.render_prometheus().encode(),
                       "text/plain; version=0.0.4; charset=utf-8")
        else:
            self._send_json(404, {"error": f"no route {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        if self.path == "/predict":
            self._predict()
        elif self.path == "/fleet/deploy":
            self._deploy()
        else:
            self._send_json(404, {"error": f"no route {self.path}"})

    def _predict(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            self._send_json(400, {"error": "missing request body"})
            return
        body = self.rfile.read(length)
        request_id = self.headers.get("X-Request-Id") or ""
        if not request_id:
            request_id = self.gateway.next_request_id()
        # Route key from a header when given (no body parse on the hot
        # path); otherwise fall back to hashing the raw body bytes.
        route_key = self.headers.get("X-Route-Key") or ""
        if not route_key:
            import hashlib

            route_key = hashlib.sha256(body).hexdigest()[:16]
        status, headers, data = self.gateway.router.predict(
            body, route_key, request_id
        )
        self._send(status, data,
                   headers.get("Content-Type", "application/json"),
                   {**headers, "X-Request-Id": request_id,
                    "X-Served-By": "fleet-gateway"})

    def _deploy(self) -> None:
        length = int(self.headers.get("Content-Length", 0))
        try:
            body = json.loads(self.rfile.read(length)) if length else {}
            result = self.gateway.deploy(body)
        except (ValueError, KeyError, TypeError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        code = 200 if result.get("ok") else 409
        self._send_json(code, result)


class Gateway:
    """HTTP front door + health poller around a :class:`GatewayRouter`."""

    def __init__(self, coordinator, host: str = "127.0.0.1", port: int = 0,
                 health_policy: HealthPolicy | None = None,
                 journal_path=None, retry: RetryPolicy = _ROUTER_RETRY,
                 poll_interval: float = 0.2, verbose: bool = False,
                 deploy_fn=None):
        self.coordinator = coordinator
        self.poll_interval = float(poll_interval)
        self._deploy_fn = deploy_fn
        self.router = GatewayRouter(
            coordinator.urls,
            health=FleetHealth(health_policy or HealthPolicy()),
            journal=RequestJournal(journal_path), retry=retry,
        )
        self._server = ThreadingHTTPServer((host, port), _GatewayHandler)
        self._server.daemon_threads = True
        self._server.gateway = self  # type: ignore[attr-defined]
        self._server.verbose = verbose  # type: ignore[attr-defined]
        self._id_lock = threading.Lock()
        self._id_counter = 0
        self._stop = threading.Event()
        self._threads: list[threading.Thread] = []

    # -- ids -----------------------------------------------------------
    def next_request_id(self) -> str:
        with self._id_lock:
            self._id_counter += 1
            return f"g-{self._id_counter:08d}"

    # -- health poller -------------------------------------------------
    def _poll_once(self) -> None:
        for rid, url in sorted(self.coordinator.urls().items()):
            try:
                payload = http_get_json(url + "/healthz", timeout=2.0)
            except (OSError, ValueError):
                self.router.health.observe_error(rid)
            else:
                self.router.health.observe(rid, payload)

    def _poll_loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            self._poll_once()

    # -- deploy admin --------------------------------------------------
    def deploy(self, request: dict) -> dict:
        if self._deploy_fn is None:
            raise ValueError("gateway has no deploy hook configured")
        return self._deploy_fn(request)

    # -- lifecycle -----------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def base_url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "Gateway":
        self._poll_once()  # prime health before taking traffic
        for target, name in ((self._server.serve_forever, "repro-gateway-http"),
                             (self._poll_loop, "repro-gateway-poll")):
            thread = threading.Thread(target=target, daemon=True, name=name)
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self) -> None:
        self._stop.set()
        self._server.shutdown()
        self._server.server_close()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self.router.journal.close()

    def __enter__(self) -> "Gateway":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
