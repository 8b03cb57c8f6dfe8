"""Crash-safe artifact I/O shared by checkpoints and data shards.

``np.savez(path)`` writes the destination in place, so a
crash mid-write leaves a truncated zip where a resume expects a
checkpoint.  :func:`atomic_write_npz` removes that failure mode: the
bytes land in a temp file in the *same directory* (same filesystem, so
the rename is atomic) and ``os.replace`` publishes them only once the
file is complete.  :func:`guarded_npz_load` is the matching read side —
every way a truncated/corrupt npz can blow up (bad zip directory, zlib
stream error, short read, missing member) surfaces as a
:class:`CheckpointError` naming the path, never a raw ``zipfile`` or
``zlib`` traceback.

On top of atomicity, every artifact written here gains an *integrity
manifest*: a ``<name>.manifest.json`` sidecar carrying the sha256 of the
published bytes plus whatever provenance the caller supplies (config
hash, seed, parent-artifact lineage).  The checksum is computed from the
temp file *before* publication, so it records the bytes the writer
intended — a torn write on a non-atomic filesystem then fails
:func:`verify_manifest` instead of silently loading garbage.  The
manifest is written after the artifact is published; a crash in the gap
leaves an artifact without a manifest, which resumable pipelines treat
as "not durable yet" and redo.

Both ends are fault-injection sites (see :mod:`repro.faults.injection`):
an ``error`` fault before the write models a crash (destination
untouched), a ``partial_write`` fault publishes a deliberately truncated
file (torn write) so loaders and manifests can prove they catch it.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = [
    "CheckpointError",
    "atomic_write_npz",
    "atomic_write_bytes",
    "atomic_write_json",
    "guarded_npz_load",
    "MANIFEST_VERSION",
    "sha256_file",
    "stable_hash",
    "manifest_path",
    "write_manifest",
    "load_manifest",
    "verify_manifest",
]

MANIFEST_VERSION = 1

_CHUNK = 1 << 20


class CheckpointError(ValueError):
    """A file is not a readable artifact (wrong format/version/truncated).

    Subclasses :class:`ValueError` for compatibility with callers that
    caught the pre-existing bare ``ValueError``s; the message always
    names the offending path.
    """


# ---------------------------------------------------------------------------
# hashing + manifests
# ---------------------------------------------------------------------------


def sha256_file(path) -> str:
    """Streaming sha256 of a file's bytes (hex digest)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def stable_hash(obj) -> str:
    """Short, stable hash of a JSON-serialisable object.

    Canonical JSON (sorted keys, no whitespace variance) keeps the hash
    a pure function of the *content*, so two configs with the same
    fields always hash alike across processes and Python versions.
    """
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def manifest_path(path) -> Path:
    """Sidecar path of an artifact's integrity manifest."""
    path = Path(path)
    return path.with_name(path.name + ".manifest.json")


def write_manifest(
    path,
    *,
    kind: str = "artifact",
    checksum: str | None = None,
    config_hash: str | None = None,
    seed: int | None = None,
    parents: list | tuple = (),
    extra: dict | None = None,
) -> Path:
    """Write the integrity-manifest sidecar for an existing artifact.

    ``checksum`` defaults to hashing the published file; pass the
    intended digest explicitly when the bytes may already be torn (the
    atomic writer does).  ``parents`` records lineage as
    ``[{"path": name, "sha256": digest}, ...]`` — enough to verify a
    whole artifact chain without a database.
    """
    path = Path(path)
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "kind": kind,
        "file": path.name,
        "size": path.stat().st_size,
        "sha256": checksum if checksum is not None else sha256_file(path),
    }
    if config_hash is not None:
        manifest["config_hash"] = config_hash
    if seed is not None:
        manifest["seed"] = int(seed)
    if parents:
        manifest["parents"] = list(parents)
    if extra:
        manifest.update(extra)
    return atomic_write_json(manifest_path(path), manifest)


def load_manifest(path) -> dict:
    """Read an artifact's manifest sidecar.

    Raises :class:`CheckpointError` when the sidecar is missing or not a
    valid manifest.
    """
    path = Path(path)
    side = manifest_path(path)
    try:
        manifest = json.loads(side.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CheckpointError(f"{path}: no integrity manifest ({side.name} missing)") from None
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        raise CheckpointError(f"{side}: unreadable manifest ({exc})") from exc
    if not isinstance(manifest, dict) or "sha256" not in manifest:
        raise CheckpointError(f"{side}: not an artifact manifest (no 'sha256' field)")
    if manifest.get("manifest_version") != MANIFEST_VERSION:
        raise CheckpointError(
            f"{side}: unsupported manifest version {manifest.get('manifest_version')!r} "
            f"(this build reads version {MANIFEST_VERSION})"
        )
    return manifest


def verify_manifest(path, *, required: bool = False) -> dict | None:
    """Check an artifact's bytes against its manifest sidecar.

    Returns the manifest on success.  A missing sidecar returns ``None``
    (legacy, pre-manifest artifact) unless ``required=True``, in which
    case it raises.  A checksum or size mismatch always raises
    :class:`CheckpointError` naming the path — the file on disk is not
    the file the writer published.
    """
    path = Path(path)
    try:
        manifest = load_manifest(path)
    except CheckpointError:
        if required or manifest_path(path).exists():
            raise
        return None
    try:
        size = path.stat().st_size
    except OSError:
        raise CheckpointError(f"{path}: artifact file does not exist") from None
    if size != manifest["size"]:
        raise CheckpointError(
            f"{path}: size mismatch vs manifest ({size} != {manifest['size']} bytes; "
            f"torn write or partial copy)"
        )
    digest = sha256_file(path)
    if digest != manifest["sha256"]:
        raise CheckpointError(
            f"{path}: checksum mismatch vs manifest (sha256 {digest[:12]}… != "
            f"{manifest['sha256'][:12]}…; the artifact is corrupt or was "
            f"overwritten outside utils.artifacts)"
        )
    return manifest


# ---------------------------------------------------------------------------
# atomic writers
# ---------------------------------------------------------------------------


def _tmp_beside(path: Path) -> Path:
    # Unique per-pid temp name beside the destination (same filesystem,
    # so os.replace is atomic).
    return path.with_name(f".{path.name}.tmp.{os.getpid()}")


def atomic_write_bytes(path, payload: bytes) -> Path:
    """Publish ``payload`` at ``path`` via temp file + ``os.replace``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _tmp_beside(path)
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def atomic_write_json(path, obj) -> Path:
    """Atomically write ``obj`` as pretty, key-sorted JSON."""
    text = json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n"
    return atomic_write_bytes(path, text.encode())


def atomic_write_npz(path, arrays: dict, site: str | None = None,
                     manifest: dict | bool | None = None) -> Path:
    """Write ``arrays`` as an npz at ``path``, atomically.

    The members are stored, not deflated: zlib saves about a tenth of
    the bytes of float weights and fields but costs tens of times the
    write (0.24 s against 4 ms for a 3.7 MB float32 checkpoint).

    ``site`` names the fault-injection site guarding the write (e.g.
    ``"checkpoint.write"``); it costs nothing unless a fault plan is
    installed.  An injected ``error``/``io_error`` fires *before* any
    bytes move, so the destination is untouched — crash semantics.  A
    ``partial_write`` publishes a half-length file — torn-write
    semantics, for exercising the load path.

    ``manifest`` controls the integrity sidecar: a dict supplies extra
    provenance fields (``kind``, ``config_hash``, ``seed``, ``parents``,
    ``extra``) forwarded to :func:`write_manifest`; ``None`` writes a
    minimal checksum-only manifest; ``False`` skips the sidecar.  The
    recorded checksum covers the *intended* bytes, so a torn write is
    detected by :func:`verify_manifest` even though a file was
    published.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payloads = ()
    if site is not None:
        from ..faults import injection

        if injection.ACTIVE:
            payloads = injection.fire(site, path=str(path))
    # Passed as an open handle because np.savez would append ".npz" to a
    # bare tmp name.
    tmp = _tmp_beside(path)
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
        checksum = None if manifest is False else sha256_file(tmp)
        if any(spec.kind == "partial_write" for spec in payloads):
            size = tmp.stat().st_size
            with open(tmp, "r+b") as fh:
                fh.truncate(max(size // 2, 1))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    if manifest is not False:
        meta = dict(manifest) if isinstance(manifest, dict) else {}
        write_manifest(path, checksum=checksum, **meta)
    return path


@contextmanager
def guarded_npz_load(path, kind: str = "checkpoint", verify: bool = False):
    """``np.load`` with every corruption mode mapped to CheckpointError.

    Yields the open ``NpzFile``; member reads inside the block are
    guarded too (zlib/short-read errors surface lazily, on access).
    ``verify=True`` first checks the bytes against the manifest sidecar
    when one exists (legacy manifest-less files still load).
    """
    path = Path(path)
    if verify:
        verify_manifest(path, required=False)
    try:
        data = np.load(path)
    except FileNotFoundError:
        raise CheckpointError(f"{path}: {kind} file does not exist") from None
    except (zipfile.BadZipFile, ValueError, OSError) as exc:
        raise CheckpointError(f"{path}: not a readable npz {kind} ({exc})") from exc
    try:
        with data:
            yield data
    except CheckpointError:
        raise
    except (zipfile.BadZipFile, zlib.error, EOFError, OSError, KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: corrupt or truncated {kind} ({exc})") from exc
