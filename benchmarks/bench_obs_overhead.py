"""Observability probe — a span-rich mini-workload for ``repro profile``.

Unlike the figure benchmarks this deliberately bypasses the disk cache:
every run exercises all four instrumented pillars (dataset generation,
training, roll-out, hybrid correction) end to end, so the emitted trace
always contains ``datagen.*``, ``train.*``, ``rollout.*`` and
``hybrid.*`` spans.  CI runs it under ``repro profile
--overhead-budget`` to pin the cost of instrumentation; it is also the
quickest way to eyeball a full-pipeline trace locally::

    PYTHONPATH=src python -m repro.cli profile benchmarks/bench_obs_overhead.py
"""

import numpy as np

from repro.core import (
    ChannelFNOConfig,
    HybridConfig,
    Trainer,
    TrainingConfig,
    build_model,
    run_hybrid_batched,
)
from repro.core.rollout import rollout_channels
from repro.data import DataGenConfig, FieldNormalizer, generate_dataset, make_channel_pairs, stack_fields
from repro.ns import FDNSSolver2D

GRID = 24
DATA = DataGenConfig(
    n=GRID, reynolds=400.0, n_samples=3, warmup=0.1, duration=0.2,
    sample_interval=0.02, solver="spectral", ic="band", seed=11,
)
MODEL = ChannelFNOConfig(
    n_in=2, n_out=1, n_fields=2, modes1=6, modes2=6, width=12, n_layers=3,
    projection_channels=24,
)


def run_obs_probe():
    samples = generate_dataset(DATA, n_workers=1)
    data = stack_fields(samples, "velocity")
    X, Y = make_channel_pairs(data, n_in=MODEL.n_in, n_out=MODEL.n_out)
    normalizer = FieldNormalizer(n_fields=2).fit(X)

    model = build_model(MODEL, rng=np.random.default_rng(0))
    trainer = Trainer(model, TrainingConfig(epochs=4, batch_size=4, learning_rate=1e-3))
    history = trainer.fit(normalizer.encode(X), normalizer.encode(Y))

    window = samples[0].velocity[: MODEL.n_in][None]  # (1, n_in, 2, n, n)
    rolled = rollout_channels(model, window.reshape(1, -1, GRID, GRID),
                              n_snapshots=3, n_fields=2, normalizer=normalizer)

    nu = 2.0 * np.pi / DATA.reynolds
    hybrid = run_hybrid_batched(
        model, [FDNSSolver2D(GRID, nu)], window,
        HybridConfig(n_in=MODEL.n_in, n_out=MODEL.n_out, n_fields=2,
                     sample_interval=DATA.sample_interval, n_cycles=1),
        normalizer=normalizer,
    )
    print(f"probe: trained {len(history.train_loss)} epoch(s), "
          f"rolled {rolled.shape[1] // 2} snapshot(s), "
          f"hybrid produced {hybrid[0].n_snapshots} snapshot(s)")
    return history


if __name__ == "__main__":
    from common import bench_entry

    bench_entry(run_obs_probe)
