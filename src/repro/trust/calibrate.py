"""Offline calibration of trust thresholds against held-out trajectories.

A threshold is only meaningful relative to what a *healthy* model scores
on *real* data: an untrained toy model lives at rms-divergence ~0.3
while a converged one sits at ~0.02, and the right gate for one is noise
for the other.  ``repro trust`` therefore replays a shard through the
deployed checkpoint, collects the full diagnostic + ensemble-spread
distribution over every sliding window, and proposes thresholds at a
quantile of that distribution times a safety margin — the ``s = 0.5``
calibration points of the serving lattice (DESIGN.md §14).

Per-window evaluation is a module-level task driven by
:func:`repro.parallel.parallel_map`, so calibration fans out across the
process pool; each job carries its own ensemble seed derived from
``task_seeds``, which keeps the proposed thresholds bitwise-identical at
any worker count.
"""

from __future__ import annotations

import numpy as np

from ..parallel import parallel_map, task_seeds

__all__ = ["calibrate", "CAL_METRICS"]

# metric name in the per-window result -> TrustPolicy threshold field
CAL_METRICS = {
    "rms_divergence": "max_rms_divergence",
    "pde_residual": "max_pde_residual",
    "spectrum_drift": "max_spectrum_drift",
    "relative_spread": "max_relative_spread",
}

_MODEL_CACHE: dict = {}


def _cached_model(path: str):
    entry = _MODEL_CACHE.get(path)
    if entry is None:
        from ..core.zoo import load_model

        # The stored dtype, as ModelRegistry serves it: calibration replays serving.
        entry = _MODEL_CACHE[path] = load_model(path)
    return entry


def _calibrate_window_task(job: dict) -> dict:
    """One sliding window → its diagnostic metrics (module-level for the pool)."""
    from ..core.rollout import apply_channels
    from .diagnostics import diagnose_prediction
    from .uq import ensemble_uq

    model, config, normalizer = _cached_model(job["model_path"])
    window = np.asarray(job["window"])
    n_in, n_fields, nx, ny = window.shape
    x = window.reshape(1, n_in * n_fields, nx, ny)
    pred = np.asarray(apply_channels(model, x, normalizer))
    prediction = pred.reshape(-1, n_fields, nx, ny)
    diagnostics = diagnose_prediction(
        window, prediction, job["dt"], job["viscosity"], job["length"]
    )
    uq = ensemble_uq(
        model, window, job["members"], job["sigma"], job["member_seed"], normalizer
    )
    out = {k: diagnostics[k] for k in ("rms_divergence", "pde_residual", "spectrum_drift")}
    out["relative_spread"] = uq["relative_spread"]
    return out


def _windows_from_samples(samples, n_in: int, stride: int, limit: int):
    """Sliding ``(sample_id, start, window, dt, viscosity)`` jobs from a shard."""
    jobs = []
    for sample in samples:
        t = np.asarray(sample.times, dtype=np.float64)
        if t.shape[0] <= n_in:
            continue
        length = 2.0 * np.pi
        dt = float(t[1] - t[0]) * length
        viscosity = length / float(sample.reynolds)
        for start in range(0, t.shape[0] - n_in, stride):
            jobs.append({
                "sample_id": int(sample.sample_id),
                "start": int(start),
                "window": np.ascontiguousarray(sample.velocity[start:start + n_in]),
                "dt": dt,
                "viscosity": viscosity,
                "length": length,
            })
            if len(jobs) >= limit:
                return jobs
    return jobs


def calibrate(
    model_path,
    data_path,
    members: int = 3,
    sigma: float = 0.01,
    seed: int = 0,
    quantile: float = 0.95,
    margin: float = 1.5,
    stride: int = 1,
    max_windows: int = 256,
    n_workers: int = 1,
) -> dict:
    """Propose trust thresholds from a checkpoint + shard.

    Returns a JSON-ready report: per-metric distribution statistics
    (mean, p50, the calibration quantile, max), proposed thresholds
    (``quantile value × margin``), and a complete ``policy`` dict ready
    for :meth:`repro.trust.TrustPolicy.from_dict`.
    """
    from ..core.zoo import load_model
    from ..data.io import load_samples

    model_path = str(model_path)
    _, config, _ = load_model(model_path)
    samples, _ = load_samples(data_path)
    jobs = _windows_from_samples(samples, config.n_in, stride, max_windows)
    if not jobs:
        raise ValueError(
            f"{data_path}: no calibration windows (need > {config.n_in} snapshots)"
        )
    member_seeds = task_seeds(seed, len(jobs))
    for job, member_seed in zip(jobs, member_seeds):
        job.update(model_path=model_path, members=int(members),
                   sigma=float(sigma), member_seed=member_seed)

    results = parallel_map(_calibrate_window_task, jobs, n_workers=n_workers)

    metrics: dict = {}
    thresholds: dict = {}
    for metric, field_name in CAL_METRICS.items():
        values = np.array([r[metric] for r in results], dtype=np.float64)
        q = float(np.quantile(values, quantile))
        proposed = max(q * margin, 1e-12)
        metrics[metric] = {
            "mean": float(values.mean()),
            "p50": float(np.quantile(values, 0.5)),
            f"q{int(round(quantile * 100))}": q,
            "max": float(values.max()),
            "proposed_threshold": proposed,
        }
        thresholds[field_name] = proposed
    policy = {
        **thresholds,
        "members": int(members),
        "sigma": float(sigma),
        "seed": int(seed),
    }
    return {
        "model": model_path,
        "data": str(data_path),
        "windows": len(jobs),
        "members": int(members),
        "sigma": float(sigma),
        "seed": int(seed),
        "quantile": float(quantile),
        "margin": float(margin),
        "metrics": metrics,
        "policy": policy,
    }
