"""Sharded, out-of-core dataset access for paper-scale data.

The paper's full dataset — 5000 trajectories × 201 snapshots on 256²
grids — is ~260 GB of velocity fields and cannot live in memory.  This
module streams training windows from a directory of npz shards
(written by :func:`repro.data.save_samples` / the ``generate`` CLI):

* :func:`generate_sharded_dataset` — generate a big dataset directly to
  disk, one shard per chunk of samples, with per-shard RNG streams that
  make the result identical to a single-shot run;
* :class:`ShardedWindowDataset` — iterate ``(X, Y)`` mini-batches of
  temporal-channel windows, holding at most one shard in memory at a
  time.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from ..faults import injection as _faults
from ..faults.policy import RetryPolicy, call_with_retry
from ..tensor import Tensor
from ..utils.artifacts import CheckpointError, verify_manifest
from ..utils.rng import as_generator
from .dataset import make_channel_pairs, stack_fields
from .generation import DataGenConfig
from .io import load_samples, save_samples

__all__ = ["generate_sharded_dataset", "ShardedWindowDataset"]


def _shard_reusable(path: Path, config: DataGenConfig, start: int, stop: int) -> bool:
    """True when ``path`` is a verified shard of exactly this slice.

    Three gates: the integrity manifest must verify (checksum + size —
    a torn shard from a killed run fails here), its recorded config hash
    must match ``config`` (a shard from a different grid/Re/seed must
    not be silently reused), and its sample range must match the slice.
    """
    try:
        manifest = verify_manifest(path, required=True)
    except CheckpointError:
        return False
    return (
        manifest.get("config_hash") == config.config_hash
        and manifest.get("sample_range") == [start, stop]
    )


def generate_sharded_dataset(
    config: DataGenConfig,
    out_dir,
    samples_per_shard: int = 50,
    n_workers: int | None = 1,
    resume: bool = False,
) -> list[Path]:
    """Generate ``config.n_samples`` trajectories into npz shards.

    Shard ``i`` holds samples ``[i·S, (i+1)·S)`` with the exact same RNG
    streams a monolithic :func:`generate_dataset` run would give them, so
    sharding is purely a storage decision.  Returns the shard paths.

    With ``resume=True``, shards that already exist on disk with a
    checksum-verified manifest matching this config and sample range are
    skipped — an interrupted generation run repeats only the shard it
    was killed in, not the hours of solver time before it.
    """
    if samples_per_shard < 1:
        raise ValueError("samples_per_shard must be >= 1")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    # Reproduce the per-sample seeds of generate_dataset, then slice.
    from ..parallel import parallel_map, task_seeds

    entropies = task_seeds(config.seed, config.n_samples)

    paths: list[Path] = []
    for shard_idx, start in enumerate(range(0, config.n_samples, samples_per_shard)):
        stop = min(start + samples_per_shard, config.n_samples)
        path = out_dir / f"shard_{shard_idx:05d}.npz"
        if resume and _shard_reusable(path, config, start, stop):
            paths.append(path)
            continue
        jobs = [(config, entropies[i], i) for i in range(start, stop)]
        shard_samples = parallel_map(_shard_worker, jobs, n_workers=n_workers)
        save_samples(
            path, shard_samples,
            metadata={
                "shard_index": shard_idx, "sample_range": [start, stop],
                "n_samples_total": config.n_samples,
            },
            manifest={
                "config_hash": config.config_hash, "seed": config.seed,
                "extra": {"shard_index": shard_idx, "sample_range": [start, stop]},
            },
        )
        paths.append(path)
    return paths


def _shard_worker(args):
    from .generation import generate_sample

    config, entropy, sample_id = args
    return generate_sample(config, np.random.default_rng(entropy), sample_id)


class ShardedWindowDataset:
    """Stream temporal-channel training windows from npz shards.

    Parameters
    ----------
    shard_paths:
        npz files written by :func:`save_samples` (or the generator
        above).  Order defines the epoch order unless shuffling.
    n_in, n_out, stride, fields:
        Window parameters, as in :func:`make_channel_pairs`.
    batch_size:
        Windows per yielded batch.
    shuffle:
        Shuffle the shard order *and* the windows inside each shard every
        epoch (a standard two-level approximation to a global shuffle that
        never materialises more than one shard).
    rng:
        Seed or generator for the shuffling.
    retry:
        Optional :class:`repro.faults.RetryPolicy` applied to each shard
        read — transient ``OSError``-family failures (flaky network
        filesystems, the usual paper-scale storage) are retried with
        seeded backoff instead of killing a multi-hour epoch.
    """

    def __init__(
        self,
        shard_paths,
        n_in: int = 10,
        n_out: int = 5,
        stride: int | None = None,
        fields: str = "velocity",
        batch_size: int = 8,
        shuffle: bool = True,
        rng=None,
        retry: RetryPolicy | None = None,
    ):
        self.shard_paths = [Path(p) for p in shard_paths]
        if not self.shard_paths:
            raise ValueError("no shards given")
        for p in self.shard_paths:
            if not p.exists():
                raise FileNotFoundError(p)
        self.n_in = int(n_in)
        self.n_out = int(n_out)
        self.stride = stride
        self.fields = fields
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self._rng = as_generator(rng)
        self.retry = retry

    # ------------------------------------------------------------------
    def _load_shard(self, path: Path):
        if _faults.ACTIVE:
            _faults.fire("data.load_shard", path=str(path))
        return load_samples(path)

    def _shard_windows(self, path: Path) -> tuple[np.ndarray, np.ndarray]:
        if self.retry is not None:
            samples, _ = call_with_retry(
                self._load_shard, path, policy=self.retry, label="data.load_shard"
            )
        else:
            samples, _ = self._load_shard(path)
        data = stack_fields(samples, self.fields)
        return make_channel_pairs(data, n_in=self.n_in, n_out=self.n_out, stride=self.stride)

    def n_windows(self) -> int:
        """Total window count (loads each shard's header once)."""
        total = 0
        for path in self.shard_paths:
            X, _ = self._shard_windows(path)
            total += X.shape[0]
        return total

    def __iter__(self) -> Iterator[tuple[Tensor, Tensor]]:
        order = (
            self._rng.permutation(len(self.shard_paths))
            if self.shuffle
            else np.arange(len(self.shard_paths))
        )
        for shard_idx in order:
            X, Y = self._shard_windows(self.shard_paths[shard_idx])
            idx = self._rng.permutation(len(X)) if self.shuffle else np.arange(len(X))
            for start in range(0, len(X), self.batch_size):
                sel = idx[start : start + self.batch_size]
                yield Tensor(X[sel]), Tensor(Y[sel])

    # ------------------------------------------------------------------
    def fit_normalizer(self, normalizer):
        """Fit a :class:`FieldNormalizer`-style object incrementally.

        Streams the shards to accumulate per-field mean/variance with a
        two-pass-free (sum / sum-of-squares) reduction, then installs the
        statistics on ``normalizer`` and returns it.
        """
        n_fields = normalizer.n_fields
        count = 0
        total = np.zeros(n_fields)
        total_sq = np.zeros(n_fields)
        for path in self.shard_paths:
            X, _ = self._shard_windows(path)
            n_snap = X.shape[1] // n_fields
            per_field = X.reshape(X.shape[0], n_snap, n_fields, -1)
            total += per_field.sum(axis=(0, 1, 3))
            total_sq += (per_field**2).sum(axis=(0, 1, 3))
            count += per_field.shape[0] * per_field.shape[1] * per_field.shape[3]
        if count == 0:
            raise ValueError("no data in shards")
        mean = total / count
        var = np.maximum(total_sq / count - mean**2, 0.0)
        normalizer.mean = mean
        normalizer.std = np.maximum(np.sqrt(var), normalizer.eps)
        if getattr(normalizer, "isotropic", False):
            normalizer.std = np.full_like(
                normalizer.std, float(np.sqrt(np.mean(normalizer.std**2)))
            )
        return normalizer
