"""``fleet_fno``: pure-FNO ``/predict`` through the gateway of a 2-replica fleet.

``python -m repro.cli fleet up --replicas 2 --serve-workers 1 --port 0``
runs as a subprocess; the benchmark reads its gateway URL from the
``repro-fleet gateway on …`` line.  Requests are JSON ``/predict`` bodies
with ``mode=fno, cycles=1`` over one of eight windows, routed by
``X-Route-Key`` = request index, on at most two keep-alive connections.
The JSON codec, the HTTP hops, the gateway and the compiled FNO forward
do nearly all the work; the PDE solver and trust do none.

Untraced runs time requests sent one at a time and two back-to-back
connections (:func:`~ledger.metrics.measure_serving`); traced runs add
the seeded open loop.  Layers are read from outside only:
client timings, the replicas' ``/stats``, and the gateway's
``/fleet/status`` and ``/metrics``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

import repro
from repro.serve import BatchPolicy, InferenceService, ModelRegistry

from .host import Skip, vm_hwm_mb
from .inputs import MODEL_NAME, N_WINDOWS, build_inputs
from .loadgen import percentile, run_open_loop
from .metrics import Result, client_metrics, measure_serving, open_schedule, timed_setup
from .spans import Tracer

RATE = 2.0          # open loop, req/s: ~25% utilisation of the CPU-bound fleet
REQUEST = {"mode": "fno", "cycles": 1}
ANNOUNCE_TIMEOUT_S = 30.0
GATEWAY_PAIRS = 30
_LATENCY_TAIL = re.compile(rb'"latency_s": ([-+0-9.eE]+)')


class _Connection:
    """One keep-alive HTTP connection, reopened after any failure."""

    def __init__(self, url: str):
        parts = urlsplit(url)
        self.host, self.port = parts.hostname, parts.port
        self._conn: http.client.HTTPConnection | None = None

    def post(self, path: str, body: bytes, headers: dict) -> tuple[int, float, bytes]:
        """``(status, time of first byte, body)``; raises on connection errors."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            self._conn.request("POST", path, body=body,
                               headers={"Content-Type": "application/json", **headers})
            response = self._conn.getresponse()
            first_byte = time.perf_counter()
            return response.status, first_byte, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _get(url: str) -> bytes:
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        conn.request("GET", parts.path)
        return conn.getresponse().read()
    finally:
        conn.close()


def _get_json(url: str) -> dict:
    return json.loads(_get(url))


class Fleet:
    """A running ``repro fleet up`` subprocess and its replicas."""

    def __init__(self, checkpoint, workdir):
        self.log_path = workdir / "fleet.log"
        cmd = [sys.executable, "-m", "repro.cli", "fleet", "up",
               "--model", f"{MODEL_NAME}={checkpoint}", "--replicas", "2",
               "--serve-workers", "1", "--port", "0", "--workdir", str(workdir / "fleet")]
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        with open(self.log_path, "wb") as log:
            # Own session: the replicas share its process group, so one
            # killpg reaches anything a failed shutdown leaves behind.
            self.proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                         stdin=subprocess.DEVNULL, env=env,
                                         start_new_session=True)
        self.replica_pids: list[int] = []
        try:
            self.url = self._await_gateway()
            status = _get_json(self.url + "/fleet/status")
            self.replica_urls = [status["endpoints"][rid] for rid in sorted(status["endpoints"])]
            self.replica_pids = [r["pid"] for r in status["coordinator"].values()]
        except BaseException:
            self.stop()
            raise

    def _await_gateway(self) -> str:
        deadline = time.monotonic() + ANNOUNCE_TIMEOUT_S
        while time.monotonic() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if line.startswith("repro-fleet gateway on "):
                    return line.split()[3]
            if self.proc.poll() is not None:
                tail = self.log_path.read_text(errors="replace").strip().splitlines()[-3:]
                raise Skip(f"fleet exited with code {self.proc.returncode} before "
                           f"announcing its gateway (port bind?): {' | '.join(tail)}")
            time.sleep(0.05)
        raise Skip(f"fleet did not announce its gateway within {ANNOUNCE_TIMEOUT_S:g} s")

    def vm_hwm_mb(self) -> dict:
        """Peak resident set of the gateway process and of each replica."""
        return {pid: vm_hwm_mb(pid) for pid in [self.proc.pid, *self.replica_pids]}

    def stop(self, graceful: bool = True) -> None:
        """SIGTERM (the fleet drains), then make sure no member survives.

        ``graceful=False`` skips the drain; set-up rounds that are thrown
        away end this way.
        """
        if self.proc.poll() is None and graceful:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        deadline = time.monotonic() + 10
        while any(_running(pid) for pid in self.replica_pids) and time.monotonic() < deadline:
            time.sleep(0.05)


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _warm_up(fleet: Fleet, bodies) -> None:
    """Trace each replica's plans for batch shapes 1 and 2 before timing.

    One request runs alone; then three at once, so two queue behind the
    first and run as one batch — retried until ``/stats`` shows it.
    """
    def post_once(url: str, body: bytes, headers: dict) -> None:
        conn = _Connection(url)
        try:
            conn.post("/predict", body, headers)
        finally:
            conn.close()

    for url in fleet.replica_urls:
        post_once(url, bodies[0], {})
        for _ in range(4):
            threads = [threading.Thread(target=post_once, args=(url, bodies[k], {}))
                       for k in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if any(int(k) >= 2 for k in _get_json(url + "/stats")["batch_histogram"]):
                break
    for key in range(2):
        post_once(fleet.url, bodies[key], {"X-Route-Key": str(key)})


def _references(checkpoint, windows) -> list[np.ndarray]:
    """Batch-1 velocities from an in-process service configured like a replica."""
    registry = ModelRegistry()
    registry.register(MODEL_NAME, checkpoint)
    with InferenceService(registry, policy=BatchPolicy(max_batch=4), n_workers=1,
                          default_mode="fno", trust=None) as service:
        return [np.asarray(service.predict(MODEL_NAME, w, **REQUEST)["velocity"])
                for w in windows]


class _Traffic:
    """``send(i)`` over per-thread gateway connections; keeps 1 in 8 bodies."""

    def __init__(self, url: str, bodies):
        self.url, self.bodies = url, bodies
        self.kept: list[tuple[int, bytes]] = []
        self._local = threading.local()
        self._conns: list[_Connection] = []
        self._lock = threading.Lock()

    def _conn(self) -> _Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = _Connection(self.url)
            with self._lock:
                self._conns.append(conn)
        return conn

    def send(self, i: int):
        window = i % N_WINDOWS
        start = time.perf_counter()
        status, first_byte, data = self._conn().post(
            "/predict", self.bodies[window], {"X-Route-Key": str(i)})
        end = time.perf_counter()
        info = {"ttfb": first_byte - start, "body": end - first_byte,
                "request_bytes": len(self.bodies[window]), "response_bytes": len(data)}
        match = _LATENCY_TAIL.search(data[-200:])
        if match:
            info["service_s"] = float(match.group(1))
        # A fixed 1-in-8 sample, cycling through the windows, is decoded
        # and checked after timing.
        if window == (i // N_WINDOWS) % N_WINDOWS:
            with self._lock:
                self.kept.append((window, data))
        return status == 200, info

    def close(self) -> None:
        for conn in self._conns:
            conn.close()


def run(seed: int, seconds: float, trace: bool, workdir) -> Result:
    checkpoint = workdir / "model.npz"
    inputs = build_inputs(seed)
    bodies = [json.dumps({"model": MODEL_NAME, "window": w.tolist(), **REQUEST}).encode()
              for w in inputs.windows]

    def setup():
        inputs.save_checkpoint(checkpoint)
        fleet = Fleet(checkpoint, workdir)
        try:
            _warm_up(fleet, bodies)
        except BaseException:
            fleet.stop()
            raise
        return fleet

    setup_s, fleet, rounds = timed_setup(setup, lambda old: old.stop(graceful=False))
    traffic = _Traffic(fleet.url, bodies)
    try:
        refs = _references(checkpoint, inputs.windows)
        records, metrics = measure_serving(traffic.send, seconds)
        metrics["setup_s"] = setup_s
        result = Result(0, 0, metrics, {"setup_rounds_s": rounds, "requests": len(records)})
        if trace:
            records += _traced_open_loop(fleet, traffic, seed, seconds, result)
        hwm = fleet.vm_hwm_mb()
        metrics["peak_rss_mb"] = sum(hwm.values())
        result.notes["vm_hwm_mb"] = list(hwm.values())
    finally:
        traffic.close()
        fleet.stop()
    mismatched = 0
    for window, data in traffic.kept:
        velocity = np.asarray(json.loads(data).get("velocity", []), dtype=np.float64)
        mismatched += not np.array_equal(velocity, refs[window])
    result.notes["checked_bodies"] = len(traffic.kept)
    result.attempted = len(records)
    result.failed = sum(not r.ok for r in records) + mismatched
    return result


def _replica_stats(fleet: Fleet) -> list[dict]:
    return [_get_json(url + "/stats") for url in fleet.replica_urls]


def _gateway_pairs(fleet: Fleet, body: bytes) -> list[float]:
    """Routed minus direct-to-replica time, over alternating sequential pairs."""
    gateway = _Connection(fleet.url)
    direct = [_Connection(url) for url in fleet.replica_urls]
    diffs = []
    try:
        for k in range(GATEWAY_PAIRS):
            legs = {}
            order = ("routed", "direct") if k % 2 == 0 else ("direct", "routed")
            for leg in order:
                start = time.perf_counter()
                if leg == "routed":
                    gateway.post("/predict", body, {"X-Route-Key": f"pair-{k}"})
                else:
                    direct[k % len(direct)].post("/predict", body, {})
                legs[leg] = time.perf_counter() - start
            diffs.append(legs["routed"] - legs["direct"])
    finally:
        for conn in (gateway, *direct):
            conn.close()
    return diffs


def _prometheus_value(text: str, name: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            total += float(line.rsplit(None, 1)[1])
    return total


def _traced_open_loop(fleet: Fleet, traffic: _Traffic, seed, seconds, result: Result):
    """The seeded open loop with a span per request, then the per-layer
    reads.

    Nothing is wrapped inside the fleet's processes, so no traced code
    sits on the timed path and ``trace.overhead`` is not measured here
    (it reads 0); the loop therefore runs once, not plain and traced.
    """
    tracer = Tracer()
    send = tracer.wrap("client.request", traffic.send,
                       lambda args, kwargs, out: {"request": args[0], "ok": out[0]})
    before = _replica_stats(fleet)
    records = run_open_loop(send, open_schedule(RATE, seconds, seed))
    layer = client_metrics(records, RATE)
    after = _replica_stats(fleet)
    pairs = _gateway_pairs(fleet, traffic.bodies[0])
    status = _get_json(fleet.url + "/fleet/status")
    prometheus = _get(fleet.url + "/metrics").decode()

    infos = [r.info for r in records if r.ok]
    batches = {}
    for old, new in zip(before, after):
        for size, count in new["batch_histogram"].items():
            batches[int(size)] = batches.get(int(size), 0) + count - old["batch_histogram"].get(size, 0)
    n_batches = sum(batches.values())
    layer.update({
        "client.ttfb_p50_ms": 1e3 * percentile([i["ttfb"] for i in infos], 50),
        "client.body_p50_ms": 1e3 * percentile([i["body"] for i in infos], 50),
        "http.request_bytes": statistics.mean(i["request_bytes"] for i in infos),
        "http.response_bytes": statistics.mean(i["response_bytes"] for i in infos),
        "serve.service_p50_ms": 1e3 * percentile([i["service_s"] for i in infos], 50),
        "http.overhead_p50_ms": 1e3 * percentile(
            [i["ttfb"] - i["service_s"] for i in infos], 50),
        "fleet.gateway_p50_ms": 1e3 * percentile(pairs, 50),
        "serve.queue_wait_p50_ms": 1e3 * statistics.mean(s["queue_wait_s"]["p50"] for s in after),
        "serve.batch_exec_p50_ms": 1e3 * statistics.mean(s["batch_exec_s"]["p50"] for s in after),
        "serve.batch_size_mean": sum(k * v for k, v in batches.items()) / max(n_batches, 1),
        "compile.traces": sum(s["compile"]["traces"] for s in after),
        "compile.fallbacks": sum(s["compile"]["fallbacks"] for s in after),
        "fleet.failovers": _prometheus_value(prometheus, "fleet_gateway_failovers_total"),
        "fleet.unrouted": _prometheus_value(prometheus, "fleet_gateway_unrouted_total"),
        "fleet.exactly_once": float(bool(status["journal"]["exactly_once"])),
    })
    result.metrics.update(layer)
    result.notes.update({"batches": n_batches, "journal": status["journal"]})
    result.tracer = tracer
    return records
