"""repro.parallel — the process-parallel data plane.

Thread pools in this codebase never escaped the GIL: NumPy releases it
inside kernels, but solver stepping and batch assembly are
Python-loop-heavy enough that one core did most of the work.  This
package moves data generation and training batch production onto real
processes while keeping the repo's two non-negotiables:

* **Bitwise determinism.**  Randomness is derived per *task* in the
  parent (:func:`task_seeds`) and results are keyed by submission index,
  so output is a pure function of (seed, task list) — independent of
  worker count, scheduling, and crash/restart history.  Tests pin
  serial ≡ 1 ≡ 2 ≡ 4 workers bytewise.
* **Zero-copy tensors.**  Datasets and batch buffers cross the process
  boundary through :class:`ShmArena` / :class:`ShmTensor` (POSIX shared
  memory) as ~100-byte handles, with a parent-owned lifecycle — a
  SIGKILLed worker cannot leak a segment.

Layout: :mod:`~repro.parallel.shm` (segments + arena),
:mod:`~repro.parallel.pool` (spawned workers, crash recovery, fault
sites), :mod:`~repro.parallel.maps` (ordered map + seed derivation),
:mod:`~repro.parallel.batches` (process-parallel training batches),
:mod:`~repro.parallel.relay` (metrics/span relay to the parent).
Multi-process *serving* is a fleet of replicas (:mod:`repro.fleet`),
not a pool.
"""

from .batches import ParallelBatchLoader
from .maps import default_workers, parallel_map, task_seeds
from .pool import (
    ProcessPool,
    RemoteTaskError,
    WorkerCrashed,
    current_worker_id,
    worker_rng,
)
from .shm import ShmArena, ShmHandle, ShmTensor

__all__ = [
    "ShmArena", "ShmHandle", "ShmTensor",
    "ProcessPool", "RemoteTaskError", "WorkerCrashed",
    "current_worker_id", "worker_rng",
    "parallel_map", "default_workers", "task_seeds",
    "ParallelBatchLoader",
]
