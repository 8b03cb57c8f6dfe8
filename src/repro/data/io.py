"""On-disk storage of generated trajectories (npz shards).

One shard holds a list of :class:`TrajectorySample`; metadata travels in
a JSON side-field so shards are self-describing.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..utils.artifacts import CheckpointError, atomic_write_npz, guarded_npz_load
from .generation import TrajectorySample

__all__ = ["save_samples", "load_samples"]

_FORMAT_VERSION = 1


def save_samples(
    path,
    samples: list[TrajectorySample],
    metadata: dict | None = None,
) -> None:
    """Write trajectories to ``path`` (npz, float32 fields).

    Casting to float32 halves the footprint; the dynamics carry far more
    uncertainty than the cast drops.  The write is atomic (temp file +
    ``os.replace``), so a crashed generation run never leaves a
    truncated file behind, and it leaves an integrity-manifest sidecar.
    """
    path = Path(path)
    if not samples:
        raise ValueError("refusing to save an empty sample list")
    arrays: dict[str, np.ndarray] = {}
    for i, s in enumerate(samples):
        arrays[f"times_{i}"] = s.times.astype(np.float64)
        arrays[f"vorticity_{i}"] = s.vorticity.astype(np.float32)
        arrays[f"velocity_{i}"] = s.velocity.astype(np.float32)
    header = {
        "version": _FORMAT_VERSION,
        "n_samples": len(samples),
        "reynolds": [s.reynolds for s in samples],
        "sample_ids": [s.sample_id for s in samples],
        "metadata": metadata or {},
    }
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    atomic_write_npz(path, arrays, site="data.write_shard", manifest={"kind": "shard"})


def load_samples(path) -> tuple[list[TrajectorySample], dict]:
    """Load a shard; returns ``(samples, metadata)``.

    Raises :class:`repro.utils.CheckpointError` (naming the path) when
    the file is missing, truncated, or not a shard — never a raw
    ``zipfile``/``zlib`` traceback.
    """
    path = Path(path)
    with guarded_npz_load(path, kind="shard") as data:
        if "header" not in data.files:
            raise CheckpointError(
                f"{path}: not a trajectory shard (npz without a 'header' "
                f"entry; keys: {sorted(data.files)[:8]})"
            )
        header = json.loads(bytes(data["header"]).decode())
        if header.get("version") != _FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported shard version {header.get('version')!r} "
                f"(this build reads version {_FORMAT_VERSION})"
            )
        samples = []
        for i in range(header["n_samples"]):
            samples.append(
                TrajectorySample(
                    times=data[f"times_{i}"],
                    vorticity=data[f"vorticity_{i}"].astype(np.float64),
                    velocity=data[f"velocity_{i}"].astype(np.float64),
                    reynolds=float(header["reynolds"][i]),
                    sample_id=int(header["sample_ids"][i]),
                )
            )
    return samples, header["metadata"]
