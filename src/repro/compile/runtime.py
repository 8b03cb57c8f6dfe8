"""The plan cache and its eager-fallback entry points.

:func:`forward` is the single inference integration point used by
``core.rollout.apply_channels`` (and therefore by rollouts, hybrid runs,
serving, and the benchmarks): it returns the compiled no-grad forward
output for ``(model, x)``, tracing a plan on first sight of a
``(batch_shape, dtype)`` key, or ``None`` when the caller should run the
eager path (compilation disabled, unsupported model, or a mid-flight
execution failure).

:func:`train_forward` is the training counterpart, called by
``core.training.Trainer`` for every model call: it always returns the
model output as a Tensor.  The first call for a ``(batch_shape, dtype)``
runs the eager forward under trace, builds a
:class:`~repro.compile.train.TrainPlan` from the recorded ops and the
output's graph, and returns the eager output (its caller's
``backward()`` runs eagerly); from then on the forward and the output's
backward run compiled.  Training plans live in the same per-model cache
under a ``("train", batch_shape, dtype)`` key, with their own negative
entry so a model that serves compiled but cannot train compiled (a
gradient through ``einsum`` or an untraced op) keeps its inference plans.

Cache structure and coherence:

* Keys are weak on the model object — plans die with their model, and
  the serve registry's LRU/mtime eviction drops them at once:
  ``serve.registry._drop_compiled_plans`` calls :func:`invalidate`.
* Per model, plans are kept in a small LRU keyed by
  ``(batch_shape, dtype)`` (training plans: ``("train", batch_shape,
  dtype)``); unseen shapes trace a new plan rather than
  failing, and models whose trace is uncompilable are negatively cached
  so the fallback check costs one dict probe.

Enable/disable with ``REPRO_COMPILE`` (default on; ``0``/``off``/
``false`` disables) or :func:`set_enabled` at runtime.  Observability:
``compile.trace`` spans around plan builds and
``compile_{hits,traces,fallbacks}_total`` counters (no-ops unless
:mod:`repro.obs` is configured; the cache keeps its own counters for
``stats()``).
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import OrderedDict

import numpy as np

from .. import obs
from ..tensor.recording import Recorder
from ..tensor.tensor import Tensor, is_grad_enabled
from .plan import CompiledPlan, PlanMismatchError, UnsupportedOpError
from .tracer import module_paths, trace_model
from .train import TrainPlan, build_train_plan

__all__ = [
    "PlanCache",
    "plan_cache",
    "forward",
    "train_forward",
    "invalidate",
    "clear",
    "stats",
    "enabled",
    "set_enabled",
]

# Sentinels for models whose trace could not be compiled (eager forever),
# one for inference plans and one for training plans.
_UNSUPPORTED = object()
_UNSUPPORTED_TRAIN = object()


def _env_enabled(environ=os.environ) -> bool:
    return environ.get("REPRO_COMPILE", "1").strip().lower() not in ("0", "off", "false")


class PlanCache:
    """Weak-keyed, per-model-LRU cache of compiled plans."""

    def __init__(self, max_plans_per_model: int = 8, enabled: bool | None = None):
        self.max_plans_per_model = int(max_plans_per_model)
        self.enabled = _env_enabled() if enabled is None else bool(enabled)
        self._plans: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._lock = threading.RLock()
        self.hits = 0
        self.traces = 0
        self.fallbacks = 0
        self.shape_evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    def forward(self, model, x: np.ndarray) -> np.ndarray | None:
        """Compiled no-grad forward, or None when the caller must run eager."""
        if not self.enabled:
            return None
        key = (x.shape, x.dtype.str)
        entry = self._lookup(model, key, _UNSUPPORTED)
        if entry is _UNSUPPORTED:
            self._count_fallback()
            return None
        if entry is not None:
            return self._run_or_drop(model, key, lambda: entry.execute(x), lambda: None)

        # Miss: trace now.  The traced forward *is* this request's eager
        # forward, so the first call costs one forward plus lowering.
        with obs.span("compile.trace", model=type(model).__name__,
                      shape=str(tuple(x.shape)), dtype=str(x.dtype)):
            try:
                plan, out = trace_model(model, x)
            except UnsupportedOpError:
                self._mark_unsupported(model, _UNSUPPORTED)
                return None
        self._store(model, key, plan)
        with self._lock:
            self.traces += 1
        obs.metric_counter("compile_traces_total")
        return out

    def train_forward(self, model, x: Tensor) -> Tensor:
        """``model(x)`` for a training step: compiled when possible.

        The first call for a ``(batch_shape, dtype)`` runs the eager
        forward under a recorder, lowers it into a :class:`TrainPlan`
        and returns the eager output; later calls run the plan, and the
        output's backward runs the plan's reverse steps.  Uncompilable
        models, disabled compilation, grad mode off and inputs that
        require grad all get the eager ``model(x)``.
        """
        if not (self.enabled and is_grad_enabled()) or x.requires_grad:
            return model(x)
        key = ("train", x.shape, x.dtype.str)
        entry = self._lookup(model, key, _UNSUPPORTED_TRAIN)
        if entry is _UNSUPPORTED_TRAIN:
            self._count_fallback()
            return model(x)
        if entry is not None:
            return self._run_or_drop(model, key, lambda: entry.forward(x.data),
                                     lambda: model(x))
        # Miss: this step's forward runs eagerly under trace, and the
        # plan is built from it now; the step's own backward runs eagerly.
        with Recorder() as recorder:
            out = model(x)
        with obs.span("compile.trace", model=type(model).__name__,
                      shape=str(key[1]), dtype=key[2], mode="train"):
            try:
                if not isinstance(out, Tensor):
                    raise UnsupportedOpError("model forward did not return a Tensor")
                plan = build_train_plan(recorder, x, out, type(model).__name__,
                                        module_paths(model))
            except UnsupportedOpError:
                self._mark_unsupported(model, _UNSUPPORTED_TRAIN)
                return out
        self._store(model, key, plan)
        with self._lock:
            self.traces += 1
        obs.metric_counter("compile_traces_total")
        return out

    def _lookup(self, model, key, sentinel):
        """The cache entry for ``(model, key)``: ``sentinel`` when the model
        is negatively cached for this kind of plan, None on a miss."""
        with self._lock:
            per_model = self._plans.get(model)
            if per_model is None:
                return None
            entry = per_model.get(key)
            if entry is None:
                return sentinel if sentinel in per_model else None
            per_model.move_to_end(key)
            return entry

    def _run_or_drop(self, model, key, run, fallback):
        """``run()`` a cached entry, counting a hit; if it raises a mismatch
        the entry is dropped and ``fallback()`` serves this call instead."""
        try:
            out = run()
        except (PlanMismatchError, ValueError, TypeError):
            # Defensive: a plan that stopped matching its model (e.g.
            # weights swapped to a different width) is dropped and the
            # call served eagerly; the next call retraces.
            with self._lock:
                per_model = self._plans.get(model)
                if per_model is not None:
                    per_model.pop(key, None)
            self._count_fallback()
            return fallback()
        with self._lock:
            self.hits += 1
        obs.metric_counter("compile_hits_total")
        return out

    def _store(self, model, key, entry) -> None:
        with self._lock:
            per_model = self._plans.setdefault(model, OrderedDict())
            per_model[key] = entry
            per_model.move_to_end(key)
            while len(per_model) > self.max_plans_per_model:
                per_model.popitem(last=False)
                self.shape_evictions += 1

    def _mark_unsupported(self, model, sentinel) -> None:
        with self._lock:
            per_model = self._plans.setdefault(model, OrderedDict())
            per_model[sentinel] = True
        self._count_fallback()

    def _count_fallback(self) -> None:
        with self._lock:
            self.fallbacks += 1
        obs.metric_counter("compile_fallbacks_total")

    # ------------------------------------------------------------------
    def plan_for(self, model, x: np.ndarray) -> CompiledPlan | None:
        """The cached plan for ``(model, x.shape, x.dtype)``, if any."""
        key = (x.shape, x.dtype.str)
        with self._lock:
            per_model = self._plans.get(model)
            entry = per_model.get(key) if per_model is not None else None
        return entry if isinstance(entry, CompiledPlan) else None

    def invalidate(self, model) -> int:
        """Drop every plan for ``model``; returns how many were dropped."""
        with self._lock:
            per_model = self._plans.pop(model, None)
            dropped = len(per_model) if per_model is not None else 0
            if dropped:
                self.invalidations += dropped
        return dropped

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def set_enabled(self, value: bool) -> None:
        """Flip compilation on/off; locked so worker threads reading
        ``enabled`` in :meth:`forward` never see a torn update."""
        with self._lock:
            self.enabled = bool(value)

    def stats(self) -> dict:
        with self._lock:
            per_model_counts = [
                sum(1 for entry in plans.values() if isinstance(entry, CompiledPlan))
                for plans in self._plans.values()
            ]
            return {
                "enabled": self.enabled,
                "models": len(per_model_counts),
                "plans": sum(per_model_counts),
                "hits": self.hits,
                "traces": self.traces,
                "fallbacks": self.fallbacks,
                "shape_evictions": self.shape_evictions,
                "invalidations": self.invalidations,
            }


# ---------------------------------------------------------------------------
# process-wide cache + module-level convenience API
# ---------------------------------------------------------------------------

_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    """The process-wide plan cache."""
    return _CACHE


def forward(model, x: np.ndarray) -> np.ndarray | None:
    """Compiled forward through the process cache (None -> run eager)."""
    return _CACHE.forward(model, x)


def train_forward(model, x: Tensor) -> Tensor:
    """Training forward through the process cache (eager when uncompilable)."""
    return _CACHE.train_forward(model, x)


def invalidate(model) -> int:
    """Drop compiled plans for ``model`` (serve registry eviction hook)."""
    return _CACHE.invalidate(model)


def clear() -> None:
    _CACHE.clear()


def stats() -> dict:
    return _CACHE.stats()


def enabled() -> bool:
    return _CACHE.enabled


def set_enabled(value: bool) -> None:
    _CACHE.set_enabled(value)
