"""Trust-layer overhead: diagnostics + ensemble UQ on the serving path.

The trust layer's cost is **O(1) per request** — one M-member batched
forward on the input window plus three FFT diagnostics on the newest
snapshots — while the request's own cost scales with the rollout
horizon (C forwards plus C·n_out PDE snapshots in hybrid mode).  The CI
gate therefore pins the representative serving request of the paper's
long-term-statistics scenario (hybrid mode, a 12-cycle horizon on a 64²
grid): the default :class:`~repro.trust.TrustPolicy` (three diagnostics
+ a 3-member seeded ensemble) must add <= 15% to its single-request
latency.

For transparency the toy worst case is *reported* alongside (1-cycle
fno on the same grid — a request that does a single forward pass, where
a 3-member ensemble is arithmetically bound to cost more than the
request itself).  A service without a policy (``trust=None``) is the
bare baseline: it computes no diagnostic at all.

Bare and trust-enabled requests are interleaved within one measurement
loop and compared on min-latency (robust to CI-runner load drift);
the verdict lands in ``benchmarks/results/bench_trust_overhead.json``.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np
from common import print_table, write_results

from repro.core import ChannelFNOConfig, build_model, save_model
from repro.serve import BatchPolicy, InferenceService, ModelRegistry
from repro.trust import TrustPolicy

GATE_MAX_OVERHEAD = 0.15  # trust-enabled latency <= 1.15x bare latency
GRID = 64
MODEL = ChannelFNOConfig(
    n_in=5, n_out=5, n_fields=2, modes1=8, modes2=8, width=16, n_layers=3,
    projection_channels=32,
)
GATE_MODE = "hybrid"   # the service's default serving mode
GATE_CYCLES = 12       # long-horizon request: the paper's serving scenario
TOY_MODE = "fno"
TOY_CYCLES = 1         # worst case: one forward pass per request
WARMUP = 2
REPEATS = 12


def _service(ckpt: str, trust) -> InferenceService:
    registry = ModelRegistry()
    registry.register("bench", ckpt)
    return InferenceService(
        registry,
        policy=BatchPolicy(max_batch=1, max_wait_ms=0.0, max_queue=16),
        n_workers=1,
        default_mode="hybrid",
        breaker=None,
        trust=trust,
    )


def _measure_pair(ckpt: str, window: np.ndarray, mode: str, cycles: int) -> dict:
    """Interleaved bare/trust latencies for one request shape."""

    def one(service):
        start = time.perf_counter()
        service.predict("bench", window, mode=mode, cycles=cycles,
                        sample_interval=0.02)
        return time.perf_counter() - start

    with _service(ckpt, trust=None) as bare_svc, \
            _service(ckpt, trust=TrustPolicy()) as trust_svc:
        for _ in range(WARMUP):
            one(bare_svc), one(trust_svc)
        bare, trust = [], []
        for _ in range(REPEATS):
            bare.append(one(bare_svc))
            trust.append(one(trust_svc))
    return {
        "bare_s": float(np.min(bare)),
        "trust_s": float(np.min(trust)),
        "overhead": float(np.min(trust) / np.min(bare) - 1.0),
    }


def run_trust_overhead():
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory(prefix="bench-trust-") as workdir:
        ckpt = os.path.join(workdir, "bench_trust_model.npz")
        save_model(ckpt, build_model(MODEL, rng=rng), MODEL)
        window = rng.standard_normal(
            (MODEL.n_in, MODEL.n_fields, GRID, GRID)
        ).astype(np.float32)

        gate_row = _measure_pair(ckpt, window, GATE_MODE, GATE_CYCLES)
        toy_row = _measure_pair(ckpt, window, TOY_MODE, TOY_CYCLES)

    rows = {
        f"{GATE_MODE} x{GATE_CYCLES} (gated)": gate_row,
        f"{TOY_MODE} x{TOY_CYCLES} (reported)": toy_row,
    }
    print_table(
        "trust-layer latency (min of %d, interleaved)" % REPEATS,
        ["request", "bare s", "trust s", "overhead"],
        [[name, r["bare_s"], r["trust_s"], f"{100 * r['overhead']:.1f}%"]
         for name, r in rows.items()],
    )

    observed = gate_row["overhead"]
    target_met = observed <= GATE_MAX_OVERHEAD
    payload = {
        "grid": GRID,
        "repeats": REPEATS,
        "gate_request": {"mode": GATE_MODE, "cycles": GATE_CYCLES},
        "toy_request": {"mode": TOY_MODE, "cycles": TOY_CYCLES},
        "requests": rows,
        "gate": {
            "metric": "hybrid_long_horizon_trust_overhead",
            "target": GATE_MAX_OVERHEAD,
            "observed": observed,
            "gated": True,
            "target_met": target_met,
        },
    }
    write_results("bench_trust_overhead", payload)
    if not target_met:
        raise SystemExit(
            f"trust overhead gate failed: diagnostics + UQ add "
            f"{100 * observed:.1f}% to the {GATE_MODE} x{GATE_CYCLES} "
            f"single-request latency (budget {100 * GATE_MAX_OVERHEAD:.0f}%)"
        )
    print(f"\ngate: PASS ({GATE_MODE} x{GATE_CYCLES} trust overhead "
          f"{100 * observed:.1f}% <= {100 * GATE_MAX_OVERHEAD:.0f}%; "
          f"toy {TOY_MODE} x{TOY_CYCLES} worst case "
          f"{100 * toy_row['overhead']:.1f}% reported, not gated)")
    return payload


if __name__ == "__main__":
    from common import bench_entry

    bench_entry(run_trust_overhead)
