"""JSON-over-HTTP front end for :class:`~repro.serve.InferenceService`.

Endpoints::

    GET  /healthz          liveness + replica health (id, breakers, queue, trust EWMA)
    GET  /stats            counters, batch histogram, latency percentiles
    GET  /metrics          Prometheus text exposition (same instruments)
    GET  /models           registry listing (config/params per model)
    POST /models/evict     {"name": ...} → drop a model from the cache
    POST /drain            stop admitting requests (graceful deploy/stop)
    POST /predict          {"model", "window", "mode"?, "cycles"?, ...}

``/predict`` bodies carry the initial window as nested JSON lists of
shape ``(n_in, n_fields, n, n)``; responses return the rolled-out
snapshots the same way.

Wire contract.  Floats round-trip exactly: a response parsed by any
conforming JSON reader yields the float64 values of ``ndarray.tolist()``.
A top-level value that is a finite float array (float16/32/64) is
widened to float64 — exact — and written by ``orjson`` in C, with
compact interiors (``[1.5,2.0]``, shortest round-trip digits).  Every
other value, including a non-finite array (``NaN``/``Infinity``
tokens), goes through ``json.dumps``, so all bytes outside the array
bodies — the ``", "``/``": "`` separators, the key order, the trailing
``"latency_s": <num>}`` — are the stdlib's, and a response without
arrays is byte-identical to ``json.dumps``.  Request bodies are parsed
by ``orjson``, and by ``json.loads`` only when ``orjson`` rejects them
(``NaN``/``Infinity`` tokens, lone surrogates) or reads a top-level
integer beyond 64 bits as a float.  So every body the stdlib accepts
is accepted, and every field the service reads has the stdlib's value:
a deeper such integer (in a window) becomes the float64 that the
service's ``np.asarray`` makes of it anyway.  ``orjson`` is a hard
dependency.  An ``X-Request-Id`` request header is echoed on the
response.

When the service carries a
:class:`~repro.trust.TrustPolicy`, each response additionally includes
``diagnostics`` (divergence / PDE residual / spectrum drift at the
prediction's native dtype and grid), ``uncertainty`` (seeded-ensemble
spread), ``trust`` (score, per-component scores, verdict), and
``mode_forced`` (whether the trust breaker coerced the serving mode);
``/stats`` gains a matching ``trust`` section.  A full queue answers
``503`` with a ``Retry-After`` header instead of blocking the client.

Built on ``http.server.ThreadingHTTPServer`` — one thread per
connection, all funnelling into the shared micro-batch queue.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import orjson

from ..faults.policy import CircuitOpenError
from .batching import QueueFullError
from .registry import ModelNotFound
from .service import InferenceService, ServiceDraining

__all__ = ["make_server", "serve_forever", "encode_json", "decode_json"]

_MAX_BODY = 256 * 1024 * 1024


def _to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _is_finite_float_array(value) -> bool:
    # 0-d arrays are excluded: tolist() makes them scalars, orjson a list.
    return (isinstance(value, np.ndarray) and value.ndim > 0
            and value.dtype.kind == "f" and value.dtype.itemsize <= 8
            and bool(np.isfinite(value).all()))


def encode_json(payload) -> bytes:
    """``json.dumps(payload, default=_to_jsonable)``, except that finite
    float arrays at the top level of a dict are written by ``orjson``
    (same values; see the module docstring for the contract)."""
    if not (isinstance(payload, dict) and all(isinstance(k, str) for k in payload)
            and any(_is_finite_float_array(v) for v in payload.values())):
        return json.dumps(payload, default=_to_jsonable).encode()
    chunks = [b"{"]
    for key, value in payload.items():
        if _is_finite_float_array(value):
            body = orjson.dumps(np.ascontiguousarray(value, dtype=np.float64),
                                option=orjson.OPT_SERIALIZE_NUMPY)
        else:
            body = json.dumps(value, default=_to_jsonable).encode()
        chunks += (json.dumps(key).encode(), b": ", body, b", ")
    chunks[-1] = b"}"  # one join: the array bodies are copied once
    return b"".join(chunks)


def decode_json(raw: bytes):
    """Parse a request body with ``orjson``, or with the stdlib when
    ``orjson`` rejects it; malformed bodies raise ``ValueError``."""
    try:
        body = orjson.loads(raw)
    except orjson.JSONDecodeError:
        return json.loads(raw)
    # orjson reads an integer literal beyond 64 bits as a float.  A
    # top-level field goes back to the stdlib so it stays an int; inside
    # an array it is already the float64 that np.asarray would make of it.
    if isinstance(body, dict) and any(
            isinstance(v, float) and abs(v) >= 2.0 ** 63 for v in body.values()):
        return json.loads(raw)
    return body


class _ServeHandler(BaseHTTPRequestHandler):
    """Request handler bound to a service via the server instance."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> InferenceService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing ------------------------------------------------------
    def _send(self, code: int, body: bytes, content_type: str,
              headers: dict | None = None) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        request_id = self.headers.get("X-Request-Id")
        if request_id:
            self.send_header("X-Request-Id", request_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, code: int, payload: dict, headers: dict | None = None) -> None:
        self._send(code, encode_json(payload), "application/json", headers)

    def _send_text(self, code: int, text: str) -> None:
        self._send(code, text.encode(), "text/plain; version=0.0.4; charset=utf-8")

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValueError("missing request body")
        if length > _MAX_BODY:
            raise ValueError(f"request body too large ({length} bytes)")
        return decode_json(self.rfile.read(length))

    # -- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        if self.path == "/healthz":
            self._send_json(200, self.service.healthz_snapshot())
        elif self.path == "/stats":
            self._send_json(200, self.service.stats_snapshot())
        elif self.path == "/metrics":
            self._send_text(200, self.service.metrics_text())
        elif self.path == "/models":
            self._send_json(200, {"models": self.service.registry.list_models()})
        else:
            self._send_json(404, {"error": f"no route {self.path}"})

    def do_POST(self) -> None:  # noqa: N802 — stdlib naming
        try:
            if self.path == "/predict":
                self._predict()
            elif self.path == "/models/evict":
                body = self._read_body()
                evicted = self.service.registry.evict(str(body.get("name", "")))
                self._send_json(200, {"evicted": bool(evicted)})
            elif self.path == "/drain":
                self._send_json(200, self.service.drain())
            else:
                self._send_json(404, {"error": f"no route {self.path}"})
        except (ValueError, KeyError, TypeError) as exc:
            self._send_json(400, {"error": str(exc)})

    def _predict(self) -> None:
        body = self._read_body()
        if "model" not in body or "window" not in body:
            self._send_json(400, {"error": "body must provide 'model' and 'window'"})
            return
        kwargs = {}
        for key in ("mode", "cycles", "reynolds", "sample_interval"):
            if key in body:
                kwargs[key] = body[key]
        try:
            result = self.service.predict(str(body["model"]), body["window"], **kwargs)
        except ModelNotFound as exc:
            self._send_json(404, {"error": str(exc)})
            return
        except (QueueFullError, CircuitOpenError, ServiceDraining) as exc:
            self._send_json(
                503,
                {"error": str(exc), "retry_after_s": exc.retry_after},
                headers={"Retry-After": f"{exc.retry_after:g}"},
            )
            return
        except ValueError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        except (RuntimeError, TimeoutError) as exc:
            # Worker-side failure or deadline miss: the request got a
            # typed error, the client gets a 500 naming the type.
            self._send_json(
                500, {"error": str(exc), "type": type(exc).__name__}
            )
            return
        self._send_json(200, result)


def make_server(service: InferenceService, host: str = "127.0.0.1", port: int = 0,
                verbose: bool = False) -> ThreadingHTTPServer:
    """Build a ready-to-run HTTP server bound to ``service``.

    ``port=0`` picks a free port; read it back from
    ``server.server_address``.  The caller owns the server lifecycle
    (``serve_forever``/``shutdown``) and the service lifecycle.
    """
    server = ThreadingHTTPServer((host, port), _ServeHandler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    return server


def serve_forever(service: InferenceService, host: str = "127.0.0.1", port: int = 8764,
                  verbose: bool = False, announce=None, heartbeat=None,
                  heartbeat_interval: float = 0.25,
                  drain_grace: float = 10.0) -> None:
    """Start the service + HTTP server and block until interrupted.

    Fleet hooks: ``announce`` names a JSON file atomically written after
    the bind with ``{replica_id, host, port, pid}`` (the coordinator
    reads the actual port back — replicas bind ``port=0``);
    ``heartbeat`` arms a :class:`repro.utils.heartbeat.Heartbeat` writer
    on that path.  SIGTERM triggers a *graceful drain*: admission stops
    (503 + Retry-After), in-flight requests get up to ``drain_grace``
    seconds to finish, then the server exits cleanly — so a supervised
    replica asked to stop never drops accepted work.
    """
    import os
    import signal
    import threading
    import time

    server = make_server(service, host, port, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    service.start()
    beat = None
    if heartbeat is not None:
        from ..utils.heartbeat import Heartbeat

        beat = Heartbeat(heartbeat, interval=heartbeat_interval).start()
    if announce is not None:
        from ..utils.artifacts import atomic_write_json

        atomic_write_json(announce, {
            "replica_id": service.replica_id,
            "host": bound_host,
            "port": int(bound_port),
            "pid": os.getpid(),
        })

    def _drain_then_shutdown() -> None:
        service.drain()
        deadline = time.monotonic() + drain_grace
        while time.monotonic() < deadline:
            if service.inflight == 0 and service.queue.depth() == 0:
                break
            time.sleep(0.05)
        server.shutdown()

    def _on_sigterm(signum, frame):  # noqa: ARG001 — signal signature
        threading.Thread(target=_drain_then_shutdown, daemon=True,
                         name="repro-serve-drain").start()

    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # repro: ignore[RPR005] -- not the main thread (embedded use): no signal hook
        pass
    print(f"repro-serve listening on http://{bound_host}:{bound_port} "
          f"(models: {', '.join(service.registry.names()) or 'none registered'})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        if beat is not None:
            beat.stop()
        server.shutdown()
        server.server_close()
        service.stop()
