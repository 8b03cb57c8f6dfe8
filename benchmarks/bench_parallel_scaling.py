"""Process-parallel scaling: cores vs throughput for data generation.

Measures ``generate_dataset`` fanning trajectory samples over a
:class:`repro.parallel.ProcessPool` at 1/2/4 workers (samples/s).  The
per-task seeding contract makes every run bitwise-identical, so the
*only* thing the worker count may change is the wall clock — which is
what this benchmark pins down.

The CI gate: on a runner with >= 4 cores, 4-process data generation must
sustain >= 2x the single-process rate.  On smaller machines (laptops,
1-core containers) the curve is still published but the gate records
``gated: false`` and the last line says ``SKIPPED`` — there is no
parallelism to win.
"""

from __future__ import annotations

import os
import time

from common import print_table, write_results

WORKER_COUNTS = [1, 2, 4]
GATE_SPEEDUP = 2.0
GATE_MIN_CORES = 4

# Enough numerics per sample (~1 s on a laptop core) that process spawn
# and result pickling are noise against the solver work being sharded.
DATAGEN_CONFIG = dict(
    n=96, reynolds=800.0, n_samples=12, warmup=0.3, duration=1.0,
    sample_interval=0.02, solver="spectral", ic="band", seed=2024,
)


def bench_datagen() -> dict:
    from repro.data import DataGenConfig, generate_dataset

    config = DataGenConfig(**DATAGEN_CONFIG)
    curve = {}
    for n_workers in WORKER_COUNTS:
        start = time.perf_counter()
        samples = generate_dataset(config, n_workers=n_workers)
        elapsed = time.perf_counter() - start
        curve[n_workers] = {
            "seconds": elapsed,
            "samples_per_s": config.n_samples / elapsed,
        }
        assert len(samples) == config.n_samples
    base = curve[WORKER_COUNTS[0]]["samples_per_s"]
    for n_workers in WORKER_COUNTS:
        curve[n_workers]["speedup"] = curve[n_workers]["samples_per_s"] / base
    return curve


def run_parallel_scaling():
    cores = os.cpu_count() or 1
    datagen = bench_datagen()

    print_table(
        "data generation (samples/s)",
        ["workers", "seconds", "samples/s", "speedup"],
        [[w, datagen[w]["seconds"], datagen[w]["samples_per_s"], datagen[w]["speedup"]]
         for w in WORKER_COUNTS],
    )

    gated = cores >= GATE_MIN_CORES
    speedup_4 = datagen[WORKER_COUNTS[-1]]["speedup"]
    target_met = speedup_4 >= GATE_SPEEDUP
    payload = {
        "cores": cores,
        "worker_counts": WORKER_COUNTS,
        "datagen": {str(w): datagen[w] for w in WORKER_COUNTS},
        "gate": {
            "metric": "datagen_speedup_4_workers",
            "target": GATE_SPEEDUP,
            "observed": speedup_4,
            "gated": gated,
            "target_met": target_met if gated else None,
        },
    }
    write_results("bench_parallel_scaling", payload)
    if gated and not target_met:
        raise SystemExit(
            f"parallel scaling gate failed: 4-worker datagen speedup "
            f"{speedup_4:.2f}x < {GATE_SPEEDUP}x on a {cores}-core runner"
        )
    if gated:
        print(f"\ngate: PASS (4-worker datagen speedup {speedup_4:.2f}x >= "
              f"{GATE_SPEEDUP}x on {cores} cores)")
    else:
        print(f"\ngate: SKIPPED (not enforced: {cores} cores < {GATE_MIN_CORES})")
    return payload


if __name__ == "__main__":
    from common import bench_entry

    bench_entry(run_parallel_scaling)
