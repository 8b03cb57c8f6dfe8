"""Batched FNO inference service (the deployment face of the repo).

Turns checkpoints saved by :mod:`repro.core.zoo` into a long-running
JSON-over-HTTP service:

* :class:`ModelRegistry` — LRU cache over ``zoo.load_model`` with
  checkpoint-mtime invalidation.
* :class:`BatchQueue`/:class:`BatchPolicy` — micro-batching engine that
  coalesces compatible rollout requests into one batched forward pass,
  with bounded depth and :class:`QueueFullError` backpressure.
* :class:`WorkerPool` — threads draining the queue.
* :class:`InferenceService` — the synchronous client API tying the
  pieces together (a response never depends on the batch it ran in).
* :func:`make_server`/:func:`serve_forever` — the HTTP front end
  (``/predict``, ``/models``, ``/healthz``, ``/stats``, ``/metrics``).

Telemetry lives in :class:`ServerStats`, which is a thin arrangement of
:mod:`repro.obs` instruments: ``/stats`` renders the historical JSON
payload, ``/metrics`` the Prometheus text exposition of the same
numbers (plus the process-wide obs registry when profiling is on).

Everything is stdlib + numpy; ``repro serve`` is the CLI entry point.
"""

from .batching import BatchPolicy, BatchQueue, PredictRequest, QueueFullError
from .httpd import make_server, serve_forever
from .registry import LoadedModel, ModelNotFound, ModelRegistry
from .service import InferenceService, ServiceDraining
from .stats import ServerStats
from .workers import WorkerPool

__all__ = [
    "BatchPolicy", "BatchQueue", "PredictRequest", "QueueFullError",
    "ModelRegistry", "LoadedModel", "ModelNotFound",
    "InferenceService", "ServerStats", "ServiceDraining", "WorkerPool",
    "make_server", "serve_forever",
]
