"""``datagen``: the paper's data protocol on the 2-worker process pool.

``generate_dataset`` of entropic-LBM samples (64², Re 800, 0.5 t_c
warm-up, 1.0 t_c recorded every 0.02 t_c) with ``n_workers=2``, called
repeatedly until the measured phase is spent.  Only ``repro.lbm`` and
``repro.parallel`` (spawned workers, results over pipes) work here; the
FNO is bypassed, so this is the no-change control for every model-side
change.  One operation is one generated sample.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from repro.data.generation import DataGenConfig, generate_dataset, generate_sample
from repro.lbm import LBMSolver2D
from repro.parallel import task_seeds

from .host import peak_rss_mb
from .loadgen import percentile
from .metrics import Result, timed_setup
from .spans import Tracer, layer_totals

SAMPLES_PER_CALL = 2   # one per worker: a call is one round of the pool
WORKERS = 2
MIN_CALLS = 2


def _config(seed: int) -> DataGenConfig:
    return DataGenConfig(
        n=64, reynolds=800.0, solver="lbm", collision="entropic", warmup=0.5,
        duration=1.0, sample_interval=0.02, n_samples=SAMPLES_PER_CALL, seed=seed,
    )


def _digest(samples) -> str:
    """Content hash of a generated set.

    Calls are compared by digest, so only one call's samples are alive at
    a time and peak memory does not depend on how many calls fit.
    """
    h = hashlib.sha256()
    for s in samples:
        for part in (s.times, s.velocity, s.vorticity, np.float64(s.reynolds)):
            h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _timed_call(config: DataGenConfig) -> tuple[float, str, int]:
    """``(wall seconds, digest, samples with non-finite velocity)``."""
    start = time.perf_counter()
    samples = generate_dataset(config, n_workers=WORKERS)
    wall = time.perf_counter() - start
    return wall, _digest(samples), sum(not np.all(np.isfinite(s.velocity)) for s in samples)


def run(seed: int, seconds: float, trace: bool, workdir) -> Result:
    config = _config(seed)
    # Set-up: the 2-worker path brought up on zero-length samples (pool
    # spawn, worker imports, LBM initialisation), which every call pays.
    probe = replace(config, warmup=0.0, duration=0.0, n_samples=WORKERS)
    setup_s, _, rounds = timed_setup(lambda: generate_dataset(probe, n_workers=WORKERS),
                                     lambda state: None)

    walls, digests, failed = [], [], 0
    start = time.perf_counter()
    while (len(walls) < MIN_CALLS
           or time.perf_counter() - start + statistics.median(walls) <= seconds):
        wall, digest, non_finite = _timed_call(config)
        walls.append(wall)
        digests.append(digest)
        failed += non_finite
    # Same seed, same samples: every call must reproduce the first.
    failed += SAMPLES_PER_CALL * sum(d != digests[0] for d in digests)
    per_sample_ms = [1e3 * w / SAMPLES_PER_CALL for w in walls]
    metrics = {
        "setup_s": setup_s,
        "p50_ms": statistics.median(per_sample_ms),
        "throughput_per_s": SAMPLES_PER_CALL * len(walls) / sum(walls),
    }
    result = Result(0, 0, metrics, {"setup_rounds_s": rounds, "calls": len(walls)})
    attempted = SAMPLES_PER_CALL * len(walls)
    if trace:
        failed += _traced(config, digests[0], statistics.median(walls), result)
        attempted += 2 * SAMPLES_PER_CALL
    metrics["peak_rss_mb"] = peak_rss_mb(children=True)
    result.attempted, result.failed = attempted, failed
    return result


def _serial(config: DataGenConfig, tracer: Tracer | None = None) -> tuple[float, str]:
    """The call's samples generated one after another in this process:
    ``(wall seconds, digest)``, with a span per sample if ``tracer``."""
    samples = []
    start = time.perf_counter()
    for i, entropy in enumerate(task_seeds(config.seed, config.n_samples)):
        with tracer.span("data.sample", sample=i) if tracer else nullcontext():
            samples.append(generate_sample(config, np.random.default_rng(entropy), i))
    return time.perf_counter() - start, _digest(samples)


def _traced(config: DataGenConfig, reference: str, call_s: float, result: Result) -> int:
    """The same samples serially, once plain and once with spans.

    The spans are installed in this process only; the 2-worker calls run
    in spawned workers that never see them, so tracing overhead is the
    traced serial pass against the plain one.  ``call_s`` is the median
    2-worker call.  Returns how many samples of the two passes differ
    from the reference digest (serial must equal 2-worker bit for bit).
    """
    plain_wall, plain = _serial(config)
    tracer = Tracer()
    with tracer.patched([(LBMSolver2D, "step", "lbm.step",
                          lambda args, kwargs, out: {"n": args[1] if len(args) > 1
                                                     else kwargs.get("n_steps", 1)})]):
        traced_wall, traced = _serial(config, tracer)
    steps = [s for s in tracer.spans if s.name == "lbm.step"]
    n_steps = sum(s.tags["n"] for s in steps)
    sample_s = [s.duration for s in tracer.spans if s.name == "data.sample"]
    result.metrics.update({
        "client.p90_ms": percentile([1e3 * s for s in sample_s], 90),
        "trace.overhead": traced_wall / plain_wall - 1.0,
        "data.sample_s": statistics.median(sample_s),
        "lbm.step_us": 1e6 * sum(s.duration for s in steps) / max(n_steps, 1),
        "lbm.steps": n_steps,
        "parallel.speedup": plain_wall / call_s,
        "parallel.overhead_s": call_s - plain_wall / WORKERS,
    })
    result.notes.update({"serial_wall_s": plain_wall, "traced_serial_wall_s": traced_wall,
                         "parallel_wall_s": call_s, "layers": layer_totals(tracer.spans)})
    result.tracer = tracer
    return SAMPLES_PER_CALL * sum(digest != reference for digest in (plain, traced))
