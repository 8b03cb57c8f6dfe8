"""Serving throughput: micro-batched vs. single-request inference.

Drives an :class:`repro.serve.InferenceService` with concurrent closed-loop
clients under two batching policies — ``max_batch=1`` (every request is its
own forward pass) and ``max_batch=8`` with a 2 ms coalescing window — and
reports sustained requests/sec for each.  Batching amortises the per-forward
fixed costs (Python/numpy dispatch, weight materialisation, FFT call
overhead) across coalesced requests, which dominate at serving-scale widths.

The checkpoint is a small temporal-channel FNO (width 2, 2×2 modes,
5 layers, ReLU) served in float32: exactly the regime where per-forward
overhead, not arithmetic, bounds single-request throughput.  Both policies
run the interleaved A/B rounds back to back so CPU-frequency and cache noise
hits them symmetrically; the reported speedup is the median over rounds.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np
from common import (
    GRID,
    ChannelFNOConfig,
    TrainingConfig,
    channel_model_path,
    print_table,
    split_dataset,
    write_results,
)

from repro.data import make_channel_pairs, stack_fields
from repro.serve import BatchPolicy, InferenceService, ModelRegistry

# Small serving-scale checkpoint: low width/modes so fixed per-forward cost
# dominates, ReLU so no per-element erf caps the amortisation ceiling.
MODEL_CONFIG = ChannelFNOConfig(
    n_in=2,
    n_out=1,
    n_fields=2,
    modes1=2,
    modes2=2,
    width=2,
    n_layers=5,
    projection_channels=8,
    activation="relu",
)
TRAIN_CONFIG = TrainingConfig(epochs=2, batch_size=8, learning_rate=3e-3, seed=3)

N_CLIENTS = 24        # > max_batch, so the queue never fully drains per batch
REQUESTS_PER_CLIENT = 8
CYCLES = 4            # rollout cycles per request (amortises service overhead)
ROUNDS = 7            # interleaved A/B measurement rounds
WARMUP_REQUESTS = 4

POLICIES = {
    "batch1": BatchPolicy(max_batch=1, max_wait_ms=0.0, max_queue=512),
    "batch8": BatchPolicy(max_batch=8, max_wait_ms=2.0, max_queue=512),
}


def _client_windows(n_clients: int) -> list[np.ndarray]:
    """Distinct physical input windows, one per client thread."""
    _, test_s = split_dataset()
    data = stack_fields(test_s, "velocity")
    X, _ = make_channel_pairs(data, n_in=MODEL_CONFIG.n_in, n_out=MODEL_CONFIG.n_out)
    shape = (MODEL_CONFIG.n_in, MODEL_CONFIG.n_fields, GRID, GRID)
    return [
        np.ascontiguousarray(X[i % X.shape[0]].reshape(shape), dtype=np.float32)
        for i in range(n_clients)
    ]


def _run_burst(service: InferenceService, windows: list[np.ndarray]) -> float:
    """All clients fire their requests concurrently; returns requests/sec."""
    barrier = threading.Barrier(len(windows) + 1)
    errors: list[Exception] = []

    def client(window: np.ndarray) -> None:
        barrier.wait()
        for _ in range(REQUESTS_PER_CLIENT):
            try:
                service.predict("bench", window, mode="fno", cycles=CYCLES)
            except Exception as exc:  # surfaced after join
                errors.append(exc)
                return

    threads = [threading.Thread(target=client, args=(w,)) for w in windows]
    for t in threads:
        t.start()
    barrier.wait()
    started = time.perf_counter()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return len(windows) * REQUESTS_PER_CLIENT / elapsed


def run_serve_throughput() -> dict:
    checkpoint = channel_model_path(MODEL_CONFIG, TRAIN_CONFIG)
    windows = _client_windows(N_CLIENTS)

    services: dict[str, InferenceService] = {}
    for label, policy in POLICIES.items():
        registry = ModelRegistry()
        registry.register("bench", checkpoint)
        # One worker: the host is single-core, so a second worker only adds
        # cache contention between concurrently executing batches.
        services[label] = InferenceService(
            registry, policy=policy, n_workers=1, default_mode="fno"
        ).start()
        for window in windows[:WARMUP_REQUESTS]:
            services[label].predict("bench", window, mode="fno", cycles=CYCLES)

    rps: dict[str, list[float]] = {label: [] for label in POLICIES}
    try:
        for _ in range(ROUNDS):
            for label in POLICIES:  # interleaved A/B: noise hits both policies
                rps[label].append(_run_burst(services[label], windows))
        histograms = {
            label: dict(sorted(services[label].stats.batch_histogram.items()))
            for label in POLICIES
        }
    finally:
        for service in services.values():
            service.stop()

    med = {label: statistics.median(values) for label, values in rps.items()}
    ratios = sorted(b8 / b1 for b1, b8 in zip(rps["batch1"], rps["batch8"]))
    speedup = {
        "median": statistics.median(ratios),
        "min": ratios[0],
        "max": ratios[-1],
    }

    rows = [
        [label, POLICIES[label].max_batch, POLICIES[label].max_wait_ms,
         med[label], min(rps[label]), max(rps[label])]
        for label in POLICIES
    ]
    print_table(
        f"Serving throughput, {GRID}×{GRID} checkpoint "
        f"({N_CLIENTS} clients × {REQUESTS_PER_CLIENT} req × {ROUNDS} rounds)",
        ["policy", "max_batch", "max_wait_ms", "req/s (med)", "min", "max"],
        rows,
    )
    print(
        f"\nbatched vs single speedup: {speedup['median']:.2f}x median "
        f"(min {speedup['min']:.2f}x, max {speedup['max']:.2f}x) — target >= 2x"
    )
    print(f"batch8 coalescing histogram: {histograms['batch8']}")

    payload = {
        "grid": GRID,
        "model_config": MODEL_CONFIG.to_dict(),
        "serve_dtype": "float32",
        "cycles_per_request": CYCLES,
        "n_clients": N_CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "rounds": ROUNDS,
        "policies": {
            label: {
                "max_batch": policy.max_batch,
                "max_wait_ms": policy.max_wait_ms,
                "requests_per_s": rps[label],
                "requests_per_s_median": med[label],
                "batch_histogram": histograms[label],
            }
            for label, policy in POLICIES.items()
        },
        "speedup": speedup,
        "target_speedup": 2.0,
        "target_met": speedup["median"] >= 2.0,
    }
    write_results("serve_throughput", payload)
    return payload


if __name__ == "__main__":
    from common import bench_entry

    bench_entry(run_serve_throughput)
