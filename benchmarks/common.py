"""Shared infrastructure for the paper-reproduction benchmarks.

Each ``bench_*`` module regenerates one table or figure of the paper at a
CPU-friendly scale (32² grid instead of 256², tens of samples instead of
5000).  Heavy artifacts — the trajectory dataset and trained models — are
cached on disk under ``benchmarks/_cache`` keyed by a config hash, so a
benchmark re-run only pays for what changed.

Every benchmark prints the rows/series the paper reports and appends its
results to ``benchmarks/results/<name>.json`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np

from repro.core import (
    ChannelFNOConfig,
    SpaceTimeFNOConfig,
    Trainer,
    TrainingConfig,
    build_model,
    load_model,
    save_model,
)
from repro.data import (
    DataGenConfig,
    FieldNormalizer,
    generate_dataset,
    load_samples,
    make_channel_pairs,
    make_spacetime_pairs,
    save_samples,
    stack_fields,
    train_test_split_samples,
)

BENCH_DIR = Path(__file__).parent
CACHE_DIR = BENCH_DIR / "_cache"
RESULTS_DIR = BENCH_DIR / "results"

# ---------------------------------------------------------------------------
# The shared benchmark scale.  One knob: everything below derives from it.
# ---------------------------------------------------------------------------
GRID = 32
REYNOLDS = 800.0
N_SAMPLES = 10
N_TEST = 2
SAMPLE_INTERVAL = 0.02  # t_c units between snapshots (paper: 0.005)
DURATION = 0.6          # trajectory length in t_c (paper: 1.0)

DATA_CONFIG = DataGenConfig(
    n=GRID,
    reynolds=REYNOLDS,
    n_samples=N_SAMPLES,
    warmup=0.3,
    duration=DURATION,
    sample_interval=SAMPLE_INTERVAL,
    solver="spectral",
    ic="band",
    seed=2024,
)


def _hash_config(obj) -> str:
    if is_dataclass(obj):
        obj = asdict(obj)
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def cached_dataset(config: DataGenConfig = DATA_CONFIG):
    """Generate (or load) the shared benchmark dataset."""
    CACHE_DIR.mkdir(exist_ok=True)
    path = CACHE_DIR / f"dataset_{_hash_config(config)}.npz"
    if path.exists():
        samples, _ = load_samples(path)
        return samples
    samples = generate_dataset(config, n_workers=1)
    save_samples(path, samples, {"config_hash": _hash_config(config)})
    return samples


def split_dataset(samples=None):
    """(train, test) trajectory split of the shared dataset."""
    if samples is None:
        samples = cached_dataset()
    return train_test_split_samples(samples, n_test=N_TEST, rng=np.random.default_rng(0))


def cached_channel_model(
    model_config: ChannelFNOConfig,
    train_config: TrainingConfig,
    data_config: DataGenConfig = DATA_CONFIG,
    fields: str = "velocity",
):
    """Train (or load) a temporal-channel FNO on the shared dataset.

    Returns ``(model, normalizer, history_dict)``; ``history_dict`` is
    ``{"train_loss": [...], "seconds": float}`` (empty when loaded from
    cache — timings are only meaningful for fresh runs).
    """
    CACHE_DIR.mkdir(exist_ok=True)
    key = _hash_config({"m": asdict(model_config), "t": asdict(train_config), "d": asdict(data_config), "f": fields})
    path = CACHE_DIR / f"channel_model_{key}.npz"
    if path.exists():
        model, _, normalizer = load_model(path)
        meta = json.loads((path.with_suffix(".json")).read_text()) if path.with_suffix(".json").exists() else {}
        return model, normalizer, meta

    train_s, _ = split_dataset(cached_dataset(data_config))
    data = stack_fields(train_s, fields)
    X, Y = make_channel_pairs(data, n_in=model_config.n_in, n_out=model_config.n_out)
    # Architecturally divergence-free models need the isotropic scaling so
    # the decode preserves solenoidality.
    isotropic = getattr(model_config, "divergence_free", False)
    normalizer = FieldNormalizer(n_fields=model_config.n_fields, isotropic=isotropic).fit(X)
    model = build_model(model_config, rng=np.random.default_rng(train_config.seed))
    trainer = Trainer(model, train_config)
    history = trainer.fit(normalizer.encode(X), normalizer.encode(Y))
    meta = {
        "train_loss": history.train_loss,
        "seconds": history.total_seconds,
        "n_pairs": int(X.shape[0]),
        "parameters": int(model.num_parameters()),
    }
    save_model(path, model, model_config, normalizer)
    path.with_suffix(".json").write_text(json.dumps(meta))
    return model, normalizer, meta


def channel_model_path(
    model_config: ChannelFNOConfig,
    train_config: TrainingConfig,
    data_config: DataGenConfig = DATA_CONFIG,
    fields: str = "velocity",
) -> Path:
    """Checkpoint path of a cached channel model, training it on first use.

    The serving benchmark needs the on-disk ``.npz`` (the model registry
    loads checkpoints by path) rather than the in-memory model.
    """
    cached_channel_model(model_config, train_config, data_config, fields)
    key = _hash_config(
        {"m": asdict(model_config), "t": asdict(train_config), "d": asdict(data_config), "f": fields}
    )
    return CACHE_DIR / f"channel_model_{key}.npz"


def cached_spacetime_model(
    model_config: SpaceTimeFNOConfig,
    train_config: TrainingConfig,
    data_config: DataGenConfig = DATA_CONFIG,
    fields: str = "velocity",
):
    """Train (or load) a 3-D space–time FNO on the shared dataset."""
    CACHE_DIR.mkdir(exist_ok=True)
    key = _hash_config({"m": asdict(model_config), "t": asdict(train_config), "d": asdict(data_config), "f": fields})
    path = CACHE_DIR / f"spacetime_model_{key}.npz"
    if path.exists():
        model, _, normalizer = load_model(path)
        meta = json.loads((path.with_suffix(".json")).read_text()) if path.with_suffix(".json").exists() else {}
        return model, normalizer, meta

    train_s, _ = split_dataset(cached_dataset(data_config))
    data = stack_fields(train_s, fields)
    X, Y = make_spacetime_pairs(data, n_in=model_config.n_in, n_out=model_config.n_out)
    # Axis 1 holds exactly the field components here (time is the last axis).
    normalizer = FieldNormalizer(n_fields=model_config.n_fields).fit(X)
    model = build_model(model_config, rng=np.random.default_rng(train_config.seed))
    trainer = Trainer(model, train_config)
    history = trainer.fit(normalizer.encode(X), normalizer.encode(Y))
    meta = {
        "train_loss": history.train_loss,
        "seconds": history.total_seconds,
        "n_pairs": int(X.shape[0]),
        "parameters": int(model.num_parameters()),
    }
    save_model(path, model, model_config, normalizer)
    path.with_suffix(".json").write_text(json.dumps(meta))
    return model, normalizer, meta


# ---------------------------------------------------------------------------
# reporting helpers
# ---------------------------------------------------------------------------

def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render an aligned text table to stdout."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h) for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in str_rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e5):
            return f"{value:.3e}"
        return f"{value:.4f}"
    return str(value)


def bench_entry(fn):
    """Run a benchmark main under the shared benchmark CLI.

    ``--sanitize`` wraps the whole run in
    :func:`repro.checks.dtype_sanitizer` (record mode) and fails the
    benchmark if any tensor op silently widened float32 inputs to
    float64/complex128 — the runtime complement of ``repro check``'s
    static RPR001 rule.  ``--trace PATH`` streams an obs span trace to
    PATH (``--profile`` additionally installs the tensor/FFT/solver
    hooks); render the result with ``repro trace PATH``.  The
    ``REPRO_OBS`` / ``REPRO_OBS_PROFILE`` environment variables are
    honoured when the flags are absent.
    """
    import argparse
    import sys

    from repro import obs

    parser = argparse.ArgumentParser(prog=fn.__module__ or "bench")
    parser.add_argument("--sanitize", action="store_true",
                        help="assert no tensor op promotes float32 to float64/complex128")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write an obs span trace (JSONL) to PATH")
    parser.add_argument("--profile", action="store_true",
                        help="with --trace: install the hot-path profiling hooks")
    args = parser.parse_args()

    if args.trace:
        obs.configure(trace_path=args.trace, profile=args.profile, keep_records=False)
    else:
        obs.configure_from_env()

    def run():
        if not args.sanitize:
            fn()
            return
        from repro.checks import dtype_sanitizer

        with dtype_sanitizer(mode="record") as report:
            fn()
        if report.ok:
            print("sanitize: no float32 promotions observed")
        else:
            print(f"sanitize: {len(report.violations)} promotion(s) observed:", file=sys.stderr)
            for message in report.violations[:20]:
                print(f"  {message}", file=sys.stderr)
            raise SystemExit(1)

    try:
        run()
    finally:
        obs.shutdown()
        if args.trace:
            print(f"trace written to {args.trace}")


def write_results(name: str, payload: dict) -> None:
    """Persist a benchmark's result dict to ``benchmarks/results``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, default=_json_default))


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"cannot serialise {type(obj)}")
