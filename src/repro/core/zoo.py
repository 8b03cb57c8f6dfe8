"""Model persistence: save/load trained FNOs with their configs.

The hybrid workflow treats a trained FNO as "a pre-trained ML model for
decaying 2D turbulence" (paper Sec. VI-C); this module is the
checkpoint format that makes the pre-trained model a reusable artifact.
The serving registry (:mod:`repro.serve.registry`) builds its cache on
top of :func:`load_model`, using :func:`checkpoint_fingerprint` to
detect stale entries and :func:`inspect_checkpoint` to describe models
without paying the weight-load cost.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from ..data.normalization import FieldNormalizer
from ..nn import Module
from ..utils.artifacts import (
    CheckpointError,
    atomic_write_npz,
    guarded_npz_load,
    stable_hash,
)
from .config import ChannelFNOConfig, SpaceTimeFNOConfig, Spatial3DChannelsConfig
from .models import build_model

__all__ = [
    "CheckpointError",
    "save_model",
    "load_model",
    "inspect_checkpoint",
    "checkpoint_fingerprint",
    "config_from_dict",
]

_FORMAT_VERSION = 1

_CONFIG_KINDS = {
    "channel_fno": ChannelFNOConfig,
    "spacetime_fno": SpaceTimeFNOConfig,
    "spatial3d_channels": Spatial3DChannelsConfig,
}


# CheckpointError now lives in repro.utils.artifacts (the data shard
# loaders raise it too); re-exported here so existing
# ``from repro.core import CheckpointError`` imports keep working.


def save_model(
    path,
    model: Module,
    config,
    normalizer: FieldNormalizer | None = None,
    manifest: dict | bool | None = None,
) -> None:
    """Write model weights + config (+ optional normalizer) to ``path``.

    The write is atomic and leaves an integrity-manifest sidecar
    recording the model kind and config hash; ``manifest`` adds
    provenance (``seed``, ``parents`` lineage, ``extra``) on top, or
    ``False`` skips the sidecar entirely.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header: dict = {"version": _FORMAT_VERSION, "config": config.to_dict()}
    arrays: dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        arrays[f"param::{name}"] = value
    if normalizer is not None:
        state = normalizer.state_dict()
        header["normalizer"] = {
            "n_fields": state["n_fields"],
            "isotropic": bool(state.get("isotropic", False)),
        }
        arrays["norm::mean"] = state["mean"]
        arrays["norm::std"] = state["std"]
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    if manifest is not False:
        manifest = dict(manifest) if isinstance(manifest, dict) else {}
        manifest.setdefault("kind", "model")
        manifest.setdefault("config_hash", stable_hash(config.to_dict()))
    atomic_write_npz(path, arrays, site="checkpoint.write", manifest=manifest)


def checkpoint_fingerprint(path) -> tuple[int, int]:
    """``(mtime_ns, size)`` of a checkpoint file — cheap staleness token.

    The serving registry stores this at load time and reloads whenever
    the fingerprint of the file on disk changes (e.g. a retrained model
    written over the same path).
    """
    st = os.stat(path)
    return (st.st_mtime_ns, st.st_size)


def _read_header(data, path: Path) -> dict:
    if "header" not in data.files:
        raise CheckpointError(
            f"{path}: not a repro checkpoint (npz without a 'header' entry; "
            f"keys: {sorted(data.files)[:8]})"
        )
    try:
        header = json.loads(bytes(data["header"]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint header ({exc})") from exc
    if header.get("version") != _FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {header.get('version')!r} "
            f"(this build reads version {_FORMAT_VERSION})"
        )
    return header


def config_from_dict(config: dict, context: str = "config"):
    """Rebuild a model config object from its ``to_dict()`` form.

    ``config`` must carry a ``kind`` key naming one of the registered
    model families.  This is the inverse of ``config.to_dict()`` and the
    contract by which configs cross process boundaries (serve worker
    processes rebuild the model from this dict plus shared weights).
    """
    cfg_dict = dict(config)
    kind = cfg_dict.pop("kind", None)
    if kind not in _CONFIG_KINDS:
        raise CheckpointError(
            f"{context}: unknown model kind {kind!r} (known: {sorted(_CONFIG_KINDS)})"
        )
    try:
        return _CONFIG_KINDS[kind](**cfg_dict)
    except TypeError as exc:
        raise CheckpointError(f"{context}: invalid {kind!r} config ({exc})") from exc


def _build_config(header: dict, path: Path):
    return config_from_dict(header.get("config", {}), context=str(path))


def load_model(path):
    """Load ``(model, config, normalizer)`` saved by :func:`save_model`.

    The model is built in the stored weights' dtype, so save → load is an
    identity; serving, calibration and ``repro compile`` all run it in
    that dtype.  ``normalizer`` is None when none was stored.  Raises
    :class:`CheckpointError` (naming the offending path) when the file is
    missing, not a checkpoint, from an unknown version/kind, or fails its
    integrity manifest (manifest-less legacy files still load).
    """
    path = Path(path)
    with guarded_npz_load(path, verify=True) as data:
        header = _read_header(data, path)
        config = _build_config(header, path)
        state = {
            key[len("param::") :]: data[key] for key in data.files if key.startswith("param::")
        }
        dtype = next((value.dtype for value in state.values()), np.float64)
        model = build_model(config, rng=np.random.default_rng(0), dtype=dtype)
        try:
            model.load_state_dict(state)
        except (KeyError, ValueError) as exc:
            raise CheckpointError(f"{path}: checkpoint weights do not match config ({exc})") from exc
        normalizer = None
        if "normalizer" in header:
            normalizer = FieldNormalizer.from_state_dict(
                {
                    "n_fields": header["normalizer"]["n_fields"],
                    "isotropic": header["normalizer"].get("isotropic", False),
                    "mean": data["norm::mean"],
                    "std": data["norm::std"],
                }
            )
    return model, config, normalizer


def inspect_checkpoint(path) -> dict:
    """Describe a checkpoint without building the model.

    Returns ``{path, version, kind, config, normalizer, dtype,
    n_parameters, n_arrays, file_bytes}``; ``normalizer`` is None or
    ``{n_fields, isotropic}``; ``dtype`` names the stored weights' dtype
    (``"float32"``).  Used by ``repro inspect`` and the serving
    ``/models`` endpoint.  Raises :class:`CheckpointError` on anything
    unreadable.
    """
    path = Path(path)
    with guarded_npz_load(path, verify=True) as data:
        header = _read_header(data, path)
        kind = header.get("config", {}).get("kind")
        _build_config(header, path)  # validate, result unused
        n_params = 0
        n_arrays = 0
        dtypes = set()
        for key in data.files:
            if key.startswith("param::"):
                value = data[key]
                n_arrays += 1
                n_params += int(np.prod(value.shape))
                dtypes.add(str(value.dtype))
    return {
        "path": str(path),
        "version": header["version"],
        "kind": kind,
        "config": header["config"],
        "normalizer": header.get("normalizer"),
        "dtype": ", ".join(sorted(dtypes)),
        "n_parameters": n_params,
        "n_arrays": n_arrays,
        "file_bytes": path.stat().st_size,
    }
