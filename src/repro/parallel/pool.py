"""A deterministic process pool with crash recovery.

``ProcessPool`` runs N long-lived ``spawn`` children, each executing
tasks named by *dotted function path* (``"pkg.mod:fn"``) — tasks cross
the boundary as small picklable tuples, never as pickled closures, so
any module-level function in the repo is a valid task regardless of how
the parent was started (pytest, CLI, another pool).

Tasks, their array arguments and their results cross the process
boundary over the pool's pipes; nothing is shared between processes.

Determinism contract: the pool guarantees **result order** (results are
keyed by submission index, not completion order) and each task carries
**its own seed** (see :func:`repro.parallel.task_seeds`), so the output
of a pool map is a pure function of the task list — independent of
worker count, scheduling, and crash/restart history.  Workers hold no
RNG of their own.

Crash recovery: a worker that dies (segfault, OOM-kill, injected
``kill`` fault) is detected through its process sentinel; its in-flight
task is resubmitted to a fresh worker — at-least-once execution with
exactly-once result recording, which for pure seeded tasks is
indistinguishable from exactly-once execution.  Restarts are bounded by
``max_restarts``; beyond that the pool fails pending tasks with
:class:`WorkerCrashed` rather than looping on a poison task.

Observability: while the parent has :mod:`repro.obs` configured, each
worker traces to a private JSONL relay file and piggybacks metric
counter deltas on every result message; the parent folds both back into
its own tracer/registry (see :mod:`repro.parallel.relay`).  Fault plans
propagate through the ``REPRO_FAULTS`` environment contract, so chaos
kill injection reaches the children exactly like any CLI process.
"""

from __future__ import annotations

import importlib
import os
import tempfile
import threading
import traceback
from collections import deque
from multiprocessing import connection, get_context
from pathlib import Path

from . import relay

__all__ = ["ProcessPool", "RemoteTaskError", "WorkerCrashed"]


class RemoteTaskError(RuntimeError):
    """A task raised in a worker; carries the remote type and traceback."""

    def __init__(self, task: str, exc_type: str, message: str, remote_tb: str = ""):
        super().__init__(f"{exc_type} in worker task {task}: {message}")
        self.task = task
        self.exc_type = exc_type
        self.remote_tb = remote_tb


class WorkerCrashed(RuntimeError):
    """A worker died and the pool ran out of restart budget."""


def resolve_task(spec: str):
    """``"pkg.mod:fn"`` → the function object (imported in this process)."""
    module_name, _, qualname = spec.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"task spec must be 'module:function', got {spec!r}")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def task_spec(fn) -> str:
    """A function object → its dotted spec (must be module-level)."""
    if isinstance(fn, str):
        return fn
    qualname = getattr(fn, "__qualname__", "")
    if "<locals>" in qualname or "<lambda>" in qualname:
        raise ValueError(
            f"pool tasks must be module-level functions (got {qualname!r}); "
            f"closures and lambdas cannot be resolved in a spawned worker"
        )
    return f"{fn.__module__}:{qualname}"


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------


def _worker_main(conn, worker_id: int, init: dict) -> None:
    """Entry point of one pool child (spawned; module-level for pickling)."""
    if init.get("env"):
        os.environ.update(init["env"])

    from .. import faults, obs
    from ..faults import injection as _faults

    faults.configure_from_env()
    if init.get("obs_trace"):
        obs.configure(trace_path=init["obs_trace"], keep_records=False)
    metrics_seen: dict = {}

    try:
        while True:  # repro: ignore[RPR007] -- task-serving loop: errors are transported to the parent, not retried; exits on the None sentinel
            message = conn.recv()
            if message is None:
                break
            task_id, spec, args, kwargs = message
            try:
                if _faults.ACTIVE:
                    _faults.fire("parallel.worker.task", task=spec, worker=worker_id)
                with obs.span("parallel.task", task=spec, worker=worker_id):
                    result = resolve_task(spec)(*args, **kwargs)
                delta = relay.metrics_delta(obs.metrics_registry(), metrics_seen)
                conn.send(("ok", task_id, result, delta))
            except Exception as exc:  # noqa: BLE001 — transported to the parent
                conn.send(("err", task_id,
                           (spec, type(exc).__name__, str(exc),
                            traceback.format_exc())))
    except (EOFError, KeyboardInterrupt):  # repro: ignore[RPR005] -- parent went away / Ctrl-C: exit the worker quietly
        pass
    finally:
        obs.shutdown()


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class _Task:
    __slots__ = ("task_id", "spec", "args", "kwargs", "done", "result", "error")

    def __init__(self, task_id: int, spec: str, args: tuple, kwargs: dict):
        self.task_id = task_id
        self.spec = spec
        self.args = args
        self.kwargs = kwargs
        self.done = threading.Event()
        self.result = None
        self.error: BaseException | None = None


class _Worker:
    __slots__ = ("id", "incarnation", "process", "conn", "inflight", "tasks_done")

    def __init__(self, worker_id: int, incarnation: int, process, conn):
        self.id = worker_id
        self.incarnation = incarnation
        self.process = process
        self.conn = conn
        self.inflight: int | None = None   # task_id currently executing
        self.tasks_done = 0


class ProcessPool:
    """N spawned workers + a receiver thread; see the module docstring.

    Parameters
    ----------
    n_workers:
        Child process count (>= 1).
    env:
        Extra environment applied in the children before repro imports —
        the ``REPRO_FAULTS`` / ``REPRO_OBS`` contracts work per worker.
    max_restarts:
        Total worker-death budget before pending tasks fail with
        :class:`WorkerCrashed`.
    """

    _CTX = get_context("spawn")  # fork would duplicate parent threads/locks

    def __init__(self, n_workers: int, env: dict | None = None,
                 max_restarts: int = 8, name: str = "repro-pool"):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = int(n_workers)
        self.name = name
        self.max_restarts = int(max_restarts)
        self._env = dict(env or {})
        self._lock = threading.Lock()
        self._tasks: dict[int, _Task] = {}
        self._backlog: deque[int] = deque()
        self._next_task_id = 0
        self._restarts = 0
        self._closed = False
        self._wake_r, self._wake_w = self._CTX.Pipe(duplex=False)

        from .. import obs

        self._relay_dir: Path | None = None
        if obs.enabled():
            self._relay_dir = Path(tempfile.mkdtemp(prefix=f"{name}-relay-"))
        self._workers: list[_Worker] = [
            self._spawn(i, incarnation=0) for i in range(self.n_workers)
        ]
        self._receiver = threading.Thread(
            target=self._recv_loop, name=f"{name}-recv", daemon=True
        )
        self._receiver.start()

    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int, incarnation: int) -> _Worker:
        parent_conn, child_conn = self._CTX.Pipe(duplex=True)
        trace_path = None
        if self._relay_dir is not None:
            trace_path = str(
                self._relay_dir / f"worker-{worker_id}-{incarnation}.jsonl"
            )
        init = {"env": self._env, "obs_trace": trace_path}
        process = self._CTX.Process(
            target=_worker_main, args=(child_conn, worker_id, init),
            name=f"{self.name}-{worker_id}", daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(worker_id, incarnation, process, parent_conn)

    # -- submission ----------------------------------------------------
    def submit(self, fn, *args, **kwargs) -> int:
        """Queue one task; returns its id for :meth:`result`."""
        spec = task_spec(fn)
        with self._lock:
            if self._closed:
                raise RuntimeError("pool is closed")
            task_id = self._next_task_id
            self._next_task_id += 1
            task = _Task(task_id, spec, args, kwargs)
            self._tasks[task_id] = task
            self._backlog.append(task_id)
            self._dispatch_locked()
        self._wake()
        return task_id

    def result(self, task_id: int, timeout: float | None = None):
        """Block until ``task_id`` finishes; raise its transported error."""
        with self._lock:
            task = self._tasks[task_id]
        if not task.done.wait(timeout):
            raise TimeoutError(f"task {task_id} did not finish in {timeout}s")
        with self._lock:
            del self._tasks[task_id]
        if task.error is not None:
            raise task.error
        return task.result

    def map(self, fn, items, timeout: float | None = None) -> list:
        """Run ``fn(item)`` for every item; results in submission order."""
        ids = [self.submit(fn, item) for item in items]
        return [self.result(task_id, timeout) for task_id in ids]

    # -- dispatch + receive --------------------------------------------
    def _dispatch_locked(self) -> None:
        """Hand backlog tasks to idle workers (caller holds the lock)."""
        for worker in self._workers:
            if not self._backlog:
                return
            if worker.inflight is None and worker.process.is_alive():
                task_id = self._backlog.popleft()
                task = self._tasks[task_id]
                worker.inflight = task_id
                try:
                    worker.conn.send(
                        (task_id, task.spec, task.args, task.kwargs)
                    )
                except (BrokenPipeError, OSError):
                    # Death is handled by the sentinel path; requeue.
                    worker.inflight = None
                    self._backlog.appendleft(task_id)

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"")
        except (BrokenPipeError, OSError):  # repro: ignore[RPR005] -- pool tearing down; a lost wake is harmless
            pass

    def _recv_loop(self) -> None:
        from .. import obs

        while True:  # repro: ignore[RPR007] -- receiver event loop: exits via the _closed flag; the OSError handler re-polls a torn fd set
            with self._lock:
                if self._closed:
                    return
                sources = {w.conn: w for w in self._workers
                           if w.process.is_alive() or w.inflight is not None}
                sentinels = {w.process.sentinel: w for w in self._workers}
            try:
                ready = connection.wait(
                    list(sources) + list(sentinels) + [self._wake_r], timeout=1.0
                )
            except OSError:  # a conn closed mid-wait during teardown
                continue
            for obj in ready:
                if obj is self._wake_r:
                    try:
                        self._wake_r.recv()
                    except (EOFError, OSError):
                        return
                    continue
                worker = sources.get(obj) or sentinels.get(obj)
                if worker is None:
                    continue
                if obj is worker.conn:
                    self._drain_worker(worker, obs)
                else:
                    self._reap(worker)

    def _drain_worker(self, worker: _Worker, obs) -> None:
        try:
            message = worker.conn.recv()
        except (EOFError, OSError):
            self._reap(worker)
            return
        status, task_id, *payload = message
        finished: _Task | None = None
        with self._lock:
            task = self._tasks.get(task_id)
            if worker.inflight == task_id:
                worker.inflight = None
            worker.tasks_done += 1
            if task is not None and not task.done.is_set():
                if status == "ok":
                    task.result = payload[0]
                    relay.fold_metrics(obs.metrics_registry(), payload[1],
                                       worker=worker.id)
                else:
                    spec, exc_type, text, tb = payload[0]
                    task.error = RemoteTaskError(spec, exc_type, text, tb)
                finished = task
            self._dispatch_locked()
        if finished is not None:
            finished.done.set()

    def _reap(self, worker: _Worker) -> None:
        """A worker died: restart it and resubmit its in-flight task."""
        failed: list[_Task] = []
        with self._lock:
            if self._closed or not self._workers[worker.id] is worker:
                return  # already replaced
            if worker.process.is_alive():
                return  # spurious wake
            worker.process.join(timeout=0)
            orphan = worker.inflight
            worker.inflight = None
            if self._restarts < self.max_restarts:
                self._restarts += 1
                replacement = self._spawn(worker.id, worker.incarnation + 1)
                replacement.tasks_done = worker.tasks_done
                self._workers[worker.id] = replacement
                if orphan is not None:
                    self._backlog.appendleft(orphan)
                self._dispatch_locked()
            else:
                # Budget exhausted: fail the orphan and everything queued.
                drained = ([orphan] if orphan is not None else []) + list(self._backlog)
                self._backlog.clear()
                for task_id in drained:
                    task = self._tasks.get(task_id)
                    if task is not None and not task.done.is_set():
                        task.error = WorkerCrashed(
                            f"worker {worker.id} died and the pool exceeded "
                            f"its restart budget ({self.max_restarts})"
                        )
                        failed.append(task)
        for task in failed:
            task.done.set()

    # -- introspection / lifecycle -------------------------------------
    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": self.n_workers,
                "alive": sum(w.process.is_alive() for w in self._workers),
                "restarts": self._restarts,
                "tasks_done": sum(w.tasks_done for w in self._workers),
                "backlog": len(self._backlog),
            }

    @property
    def restarts(self) -> int:
        with self._lock:
            return self._restarts

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers, merge worker traces, fail pending tasks."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            workers = list(self._workers)
            pending = [t for t in self._tasks.values() if not t.done.is_set()]
        # Stop the receiver first so teardown never races its recv/wait.
        self._wake()
        self._receiver.join(timeout)
        for worker in workers:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):  # repro: ignore[RPR005] -- already-dead worker; the join/kill below handles it
                pass
        for worker in workers:
            worker.process.join(timeout)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout)
            worker.conn.close()
        for task in pending:
            if task.error is None and task.result is None:
                task.error = RuntimeError("pool closed before task completed")
            task.done.set()
        self._merge_relay()

    def _merge_relay(self) -> None:
        from .. import obs

        if self._relay_dir is None:
            return
        tracer = obs.current_tracer()
        if tracer is not None:
            relay.merge_traces(tracer, sorted(self._relay_dir.glob("*.jsonl")))
        for path in self._relay_dir.glob("*.jsonl"):
            try:
                path.unlink()
            except OSError:  # repro: ignore[RPR005] -- best-effort tmp cleanup after traces are merged
                pass
        try:
            self._relay_dir.rmdir()
        except OSError:  # repro: ignore[RPR005] -- best-effort tmp cleanup after traces are merged
            pass

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
