"""Metric names and units, and the helpers every workload shares.

The tables here are what ``run.py`` prints; the test suite checks them
against ``BENCHMARK.json`` so the two cannot drift apart.  A per-layer
metric whose layer is not on a workload's path reads 0 on that workload
(for example ``ns.steps`` on ``fleet_fno``, which runs no PDE).
"""

from __future__ import annotations

import ctypes
import gc
import math
import statistics
import time
from dataclasses import dataclass, field

from .loadgen import percentile, poisson_schedule, run_latency_and_capacity, run_open_loop

__all__ = [
    "END_TO_END", "PER_LAYER", "SETUP_ROUNDS", "SLO_S", "Result", "metric_table",
    "timed_setup", "measure_serving", "client_metrics", "open_schedule",
    "open_loop_layers", "shares",
]


@dataclass
class Result:
    """What one workload run measured.

    ``metrics`` maps ledger names to values (end-to-end and, for traced
    runs, per-layer); ``notes`` carries context for the printed table and
    the results file (accounting, counts) that is not itself a metric;
    ``tracer`` holds a traced run's spans.
    """

    attempted: int
    failed: int
    metrics: dict
    notes: dict = field(default_factory=dict)
    tracer: object = None


END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # client side, every workload
    "client.open_p50_ms": "ms",
    "client.p90_ms": "ms",
    "client.lag_p90_ms": "ms",
    "client.goodput_rps": "req/s",
    "trace.overhead": "ratio",
    # HTTP path (fleet_fno)
    "client.ttfb_p50_ms": "ms",
    "client.body_p50_ms": "ms",
    "http.request_bytes": "bytes",
    "http.response_bytes": "bytes",
    "http.overhead_p50_ms": "ms",
    "fleet.gateway_p50_ms": "ms",
    "fleet.failovers": "count",
    "fleet.unrouted": "count",
    "fleet.exactly_once": "bool",
    # serving (fleet_fno, direct_hybrid_trust)
    "serve.service_p50_ms": "ms",
    "serve.queue_wait_p50_ms": "ms",
    "serve.batch_exec_p50_ms": "ms",
    "serve.batch_size_mean": "count",
    "compile.traces": "count",
    "compile.fallbacks": "count",
    # in-process serving layers (direct_hybrid_trust)
    "compile.forward_ms": "ms",
    "compile.forward_calls": "count",
    "compile.gflops": "GFLOP/s",
    "core.hybrid_self_ms": "ms",
    "core.fno_ms": "ms",
    "core.fno_calls": "count",
    "core.fallback_ratio": "ratio",
    "ns.step_ms": "ms",
    "ns.steps": "count",
    "trust.assess_self_ms": "ms",
    "trust.diagnose_ms": "ms",
    "trust.ensemble_ms": "ms",
    "trust.trusted_ratio": "ratio",
    # self time of each span over total batch time; they sum to 1
    "serve.batch.share": "ratio",
    "core.hybrid.share": "ratio",
    "core.fno.share": "ratio",
    "compile.forward.share": "ratio",
    "ns.step.share": "ratio",
    "trust.assess.share": "ratio",
    "trust.diagnose.share": "ratio",
    "trust.ensemble.share": "ratio",
    # training (train)
    "train.epoch_s": "s",
    "train.steps": "count",
    "nn.forward_ms": "ms",
    "nn.spectral_conv_ms": "ms",
    "tensor.backward_ms": "ms",
    "optim.step_ms": "ms",
    "data.batch_ms": "ms",
    # data generation (datagen)
    "data.sample_s": "s",
    "lbm.step_us": "us",
    "lbm.steps": "count",
    "parallel.speedup": "ratio",
    "parallel.overhead_s": "s",
}

# Set-up is repeated this many times per run and its median reported, so
# one slow process start does not move the ledger.
SETUP_ROUNDS = 3
# Open-loop latency limit for goodput.
SLO_S = 0.5
# Length of a traced serving run's open loop, as a share of --seconds.
OPEN_SHARE = 0.5


def metric_table(measured: dict, trace: bool) -> dict:
    """The printed metrics: ``{name: {"value", "unit"}}``.

    Every end-to-end metric must have been measured (a missing one is an
    error, never a 0 that reads as a gain); a per-layer metric whose
    layer is not on the workload's path reads 0.
    """
    table = PER_LAYER if trace else END_TO_END
    out = {}
    for name, unit in table.items():
        value = float(measured.get(name, 0.0) if trace else measured[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        out[name] = {"value": value, "unit": unit}
    return out


def release_free_memory() -> None:
    """``malloc_trim(0)`` where the C library has it (glibc); else nothing."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def timed_setup(setup, teardown, rounds: int = SETUP_ROUNDS):
    """Run ``setup()`` ``rounds`` times; tear down all but the last.

    Set-up is the system's: checkpoint, process or service start, and
    warm-up until caches are full.  The inputs are built from the seed
    beforehand and are not part of it.  Returns ``(median seconds, last
    state, all round times)``; rounds are identical, so their spread is
    the host's noise.
    """
    times, state = [], None
    for _ in range(rounds):
        if state is not None:
            teardown(state)
            # Free the previous round (services and models hold reference
            # cycles) and hand its memory back to the OS before the next
            # round allocates, so peak memory measures one live system
            # rather than when the collector ran or how the heap fragmented.
            state = None
            gc.collect()
            release_free_memory()
        start = time.perf_counter()
        state = setup()
        times.append(time.perf_counter() - start)
    return statistics.median(times), state, times


def measure_serving(send, seconds: float) -> tuple[list, dict]:
    """The serving workloads' gated measurement: ``p50_ms`` over requests
    sent one at a time, ``throughput_per_s`` from two back-to-back clients."""
    latency, loaded, capacity = run_latency_and_capacity(send, seconds)
    return latency + loaded, {
        "p50_ms": 1e3 * percentile([r.latency for r in latency], 50),
        "throughput_per_s": capacity,
    }


def client_metrics(open_records, rate: float) -> dict:
    """Open-loop latency, generator lag and goodput, in the ledger's units."""
    latencies = [r.latency for r in open_records]
    good = sum(1 for r in open_records if r.ok and r.latency <= SLO_S)
    return {
        "client.open_p50_ms": 1e3 * percentile(latencies, 50),
        "client.p90_ms": 1e3 * percentile(latencies, 90),
        "client.lag_p90_ms": 1e3 * percentile([r.lag for r in open_records], 90),
        "client.goodput_rps": good / (len(open_records) / rate),
    }


def open_schedule(rate: float, seconds: float, seed: int):
    """A traced serving run's open-loop arrivals: ``rate`` over a share of
    the measured phase, at least ten requests."""
    return poisson_schedule(rate, max(10, round(rate * seconds * OPEN_SHARE)), seed)


def open_loop_layers(send, replay, rate: float, seconds: float, seed: int):
    """A traced serving run's open loop: once plain, then ``replay(schedule)``
    runs it again with spans and returns its records.

    Returns the records of both passes and the traced pass's client
    metrics, with ``trace.overhead`` comparing the two passes' medians.
    """
    schedule = open_schedule(rate, seconds, seed)
    plain = run_open_loop(send, schedule)
    traced = replay(schedule)
    layer = client_metrics(traced, rate)
    base = client_metrics(plain, rate)["client.open_p50_ms"]
    layer["trace.overhead"] = layer["client.open_p50_ms"] / base - 1.0
    return plain + traced, layer


def shares(totals: dict, root: str) -> dict:
    """``<layer>.share``: each layer's self time over the root span's total."""
    base = totals.get(root, {}).get("total", 0.0)
    return {name: (row["self"] / base if base else 0.0) for name, row in totals.items()}
