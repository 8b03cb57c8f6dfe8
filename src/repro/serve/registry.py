"""Model registry: LRU-cached checkpoint loading with mtime invalidation.

Serving N requests against M models should pay ``zoo.load_model`` once
per model, not once per request.  The registry keeps up to ``capacity``
loaded models in LRU order, keyed by resolved checkpoint path, and
rechecks the file fingerprint (mtime + size) on every hit so a model
retrained over the same path is picked up transparently.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from ..core.zoo import (
    CheckpointError,
    checkpoint_fingerprint,
    inspect_checkpoint,
    load_model,
)
from ..utils.artifacts import verify_manifest

__all__ = ["LoadedModel", "ModelRegistry", "ModelNotFound"]


class ModelNotFound(KeyError):
    """No checkpoint is known under the requested name."""


def _drop_compiled_plans(entry: "LoadedModel") -> None:
    """A model left the cache: its compiled plans go along with it."""
    from .. import compile as _compile

    _compile.invalidate(entry.model)


@dataclass
class LoadedModel:
    """A cached checkpoint: model + config + normalizer + provenance."""

    name: str
    path: Path
    model: object
    config: object
    normalizer: object
    fingerprint: tuple[int, int]
    info: dict = field(default_factory=dict)


class ModelRegistry:
    """Thread-safe LRU cache of loaded checkpoints.

    Parameters
    ----------
    capacity:
        Maximum number of models held in memory at once; the least
        recently used entry is evicted beyond that.
    require_manifest:
        When True the registry refuses models without a
        checksum-verified integrity manifest — serving never answers
        from weights whose provenance cannot be proven.  When False
        (default, for legacy checkpoints) a *missing* sidecar is
        tolerated, but a failing one is always refused: a checkpoint
        whose bytes contradict its own manifest is corrupt, not legacy.

    Names are resolved through explicit aliases first
    (:meth:`register`), then treated as filesystem paths.  ``get``
    returns a :class:`LoadedModel`, built in its checkpoint's stored
    dtype; hit/miss/invalidation counters feed the serving ``/stats``
    endpoint.

    Whenever a loaded model leaves the cache — explicit :meth:`evict`,
    LRU pressure, or an mtime/size fingerprint change on ``get`` — the
    registry drops the departing model's compiled inference plans
    (:func:`repro.compile.invalidate`), keeping the plan cache coherent
    with what serving actually answers from: a retrained checkpoint can
    never be served through a stale plan.
    """

    def __init__(self, capacity: int = 4, require_manifest: bool = False):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.require_manifest = bool(require_manifest)
        self._aliases: dict[str, Path] = {}
        self._cache: OrderedDict[Path, LoadedModel] = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    # -- name handling -------------------------------------------------
    def register(self, name: str, path) -> None:
        """Alias ``name`` to a checkpoint path.

        The path must exist and pass integrity verification (see
        ``require_manifest``) — refusing an unverifiable model at
        registration beats discovering the corruption on the first
        inference request.
        """
        path = Path(path)
        if not path.is_file():
            raise CheckpointError(f"{path}: checkpoint file does not exist")
        verify_manifest(path, required=self.require_manifest)
        with self._lock:
            self._aliases[name] = path

    def resolve(self, name: str) -> Path:
        """Alias or path string → checkpoint path; raises :class:`ModelNotFound`."""
        with self._lock:
            if name in self._aliases:
                return self._aliases[name]
        path = Path(name)
        if path.is_file():
            return path
        raise ModelNotFound(f"no model registered or on disk under {name!r}")

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._aliases)

    # -- cache ---------------------------------------------------------
    def get(self, name: str) -> LoadedModel:
        """Fetch a loaded model, loading/reloading from disk as needed."""
        path = self.resolve(name)
        try:
            fingerprint = checkpoint_fingerprint(path)
        except OSError:
            raise ModelNotFound(f"checkpoint disappeared: {path}") from None
        with self._lock:
            entry = self._cache.get(path)
            if entry is not None and entry.fingerprint == fingerprint:
                self._cache.move_to_end(path)
                self.hits += 1
                return entry
            if entry is not None:
                self.invalidations += 1
                del self._cache[path]
                _drop_compiled_plans(entry)
            self.misses += 1
            # load_model re-verifies when a sidecar exists; this adds the
            # strict "no manifest, no service" policy when configured.
            verify_manifest(path, required=self.require_manifest)
            model, config, normalizer = load_model(path)
            entry = LoadedModel(
                name=name,
                path=path,
                model=model,
                config=config,
                normalizer=normalizer,
                fingerprint=fingerprint,
                info=inspect_checkpoint(path),
            )
            self._cache[path] = entry
            while len(self._cache) > self.capacity:
                _, evicted = self._cache.popitem(last=False)
                _drop_compiled_plans(evicted)
            return entry

    def evict(self, name: str) -> bool:
        """Drop a model from the cache (the alias survives)."""
        try:
            path = self.resolve(name)
        except ModelNotFound:
            return False
        with self._lock:
            entry = self._cache.pop(path, None)
            if entry is not None:
                _drop_compiled_plans(entry)
            return entry is not None

    def cached_names(self) -> list[str]:
        with self._lock:
            return [entry.name for entry in self._cache.values()]

    def list_models(self) -> list[dict]:
        """Describe every known alias (and whether it is currently cached)."""
        with self._lock:
            aliases = dict(self._aliases)
            cached = {entry.path: entry for entry in self._cache.values()}
        out = []
        for name, path in sorted(aliases.items()):
            row = {"name": name, "path": str(path), "cached": path in cached}
            try:
                info = cached[path].info if path in cached else inspect_checkpoint(path)
                row.update(kind=info["kind"], dtype=info["dtype"],
                           n_parameters=info["n_parameters"],
                           config=info["config"], normalizer=info["normalizer"])
            except CheckpointError as exc:
                row["error"] = str(exc)
            out.append(row)
        return out

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "cached": len(self._cache),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
            }
