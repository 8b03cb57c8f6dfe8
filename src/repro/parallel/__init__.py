"""repro.parallel — process-parallel task fan-out.

Thread pools in this codebase never escaped the GIL: NumPy releases it
inside kernels, but solver stepping is Python-loop-heavy enough that one
core did most of the work.  This package moves data generation (and
trust calibration) onto real processes with one rule: a task, its array
arguments and its result cross the process boundary over the pool's
pipes, and each task carries its own seed.

That rule is the bitwise-determinism contract: randomness is derived per
*task* in the parent (:func:`task_seeds`) and results are keyed by
submission index, so output is a pure function of (seed, task list) —
independent of worker count, scheduling, and crash/restart history.
Tests pin serial ≡ 1 ≡ 2 ≡ 4 workers bytewise.

Layout: :mod:`~repro.parallel.pool` (spawned workers, crash recovery,
fault sites), :mod:`~repro.parallel.maps` (ordered map + seed
derivation), :mod:`~repro.parallel.relay` (metrics/span relay to the
parent).  Multi-process *serving* is a fleet of replicas
(:mod:`repro.fleet`), not a pool.
"""

from .maps import available_cores, default_workers, parallel_map, task_seeds
from .pool import ProcessPool, RemoteTaskError, WorkerCrashed

__all__ = [
    "ProcessPool", "RemoteTaskError", "WorkerCrashed",
    "parallel_map", "available_cores", "default_workers", "task_seeds",
]
