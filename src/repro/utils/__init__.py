"""Shared utilities: RNG fan-out, crash-safe I/O.

The old ``repro.utils.parallel`` serial-fallback map moved to
:mod:`repro.parallel` (``parallel_map`` / ``default_workers``), which
adds crash recovery, seeded worker streams and shared-memory tensors.
"""

from .artifacts import (
    CheckpointError,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_npz,
    guarded_npz_load,
    load_manifest,
    manifest_path,
    sha256_file,
    stable_hash,
    verify_manifest,
    write_manifest,
)
from .rng import as_generator, spawn_rngs

__all__ = [
    "spawn_rngs", "as_generator",
    "CheckpointError", "atomic_write_npz", "atomic_write_bytes",
    "atomic_write_json", "guarded_npz_load",
    "sha256_file", "stable_hash", "manifest_path",
    "write_manifest", "load_manifest", "verify_manifest",
]
