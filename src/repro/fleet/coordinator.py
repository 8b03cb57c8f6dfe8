"""Fleet coordinator: spawn, supervise, and heal N serve replicas.

The coordinator owns the replica child processes.  A single supervision
thread watches every replica for two failure signals:

* **exit** — ``proc.poll()`` reports the child died (SIGKILL, OOM,
  crash); clean exits of *paused* replicas (deploys, operator stops)
  are not failures;
* **stall** — the child's heartbeat file stops advancing for
  ``stall_timeout`` seconds (read through
  :class:`repro.utils.heartbeat.HeartbeatReader`, so torn reads never
  alias as stalls); a stalled replica is SIGKILLed first, then restarted.

Restarts draw from a seeded :class:`repro.faults.RetryPolicy` budget
per replica: ``attempts - 1`` restarts with the policy's exponential
backoff between them (crash-loops back off instead of spinning), after
which the replica is marked ``failed`` and left down for the operator —
the gateway's health lattice has long since ejected it.

Deploys call :meth:`restart_replica`, which pauses supervision for that
replica, drains the old incarnation (SIGTERM → graceful drain), spawns
a fresh one — possibly with a new checkpoint — and resumes watching.

Every incarnation gets the same BLAS thread budget,
``max(1, available_cores() // n_replicas)``, so the replicas' BLAS
pools together fit the host's cores instead of each taking all of them.

Routing reads (:meth:`urls`, :meth:`status`) never wait on a restart:
the backoff and the new incarnation's startup run outside the
coordinator's lock, and a replica is left out of :meth:`urls` from
its death until its replacement announces.
"""

from __future__ import annotations

import threading
import time
from pathlib import Path

from ..faults.policy import RetryPolicy
from ..parallel.maps import available_cores
from ..utils.heartbeat import HeartbeatReader
from .replica import ReplicaProcess, ReplicaSpec

__all__ = ["Coordinator"]

_DEFAULT_RETRY = RetryPolicy(attempts=6, backoff=0.2, factor=2.0,
                             max_backoff=5.0, retry_on=())


class Coordinator:
    """Supervisor of a fixed-size fleet of serve replicas."""

    def __init__(self, spec: ReplicaSpec, n_replicas: int, workdir,
                 retry: RetryPolicy = _DEFAULT_RETRY,
                 stall_timeout: float = 5.0, poll_interval: float = 0.1,
                 ready_timeout: float = 30.0, drain_timeout: float = 10.0,
                 on_event=None, clock=time.monotonic, sleep=time.sleep):
        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        self.workdir = Path(workdir)
        self.retry = retry
        self.stall_timeout = float(stall_timeout)
        self.poll_interval = float(poll_interval)
        self.ready_timeout = float(ready_timeout)
        self.drain_timeout = float(drain_timeout)
        self.blas_budget = max(1, available_cores() // n_replicas)
        self._on_event = on_event
        self._clock = clock
        self._sleep = sleep
        self._delays = retry.delays()
        self._lock = threading.RLock()
        self._replicas: dict[str, ReplicaProcess] = {}
        self._specs: dict[str, ReplicaSpec] = {
            f"r{i}": spec for i in range(n_replicas)
        }
        self._restarts: dict[str, int] = {rid: 0 for rid in self._specs}
        self._paused: set[str] = set()
        self._failed: set[str] = set()
        self._down: set[str] = set()  # dead, not (yet) replaced
        # Held across one replica's backoff + startup, so a deploy and a
        # crash restart of the same replica never spawn two children.
        self._spawning = {rid: threading.Lock() for rid in self._specs}
        self._beats: dict[str, HeartbeatReader] = {}
        self._beat_seen: dict[str, tuple[int, float]] = {}  # (seq, at)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- events --------------------------------------------------------
    def _emit(self, event: str, replica: str, **extra) -> None:
        if self._on_event is not None:
            self._on_event({"event": event, "replica": replica, **extra})

    # -- lifecycle -----------------------------------------------------
    def _spawn(self, rid: str, spec: ReplicaSpec) -> ReplicaProcess:
        """Spawn + await one replica.  Runs without the lock: startup
        takes seconds, and routing must not wait on it."""
        proc = ReplicaProcess(rid, spec, self.workdir, self.blas_budget)
        proc.spawn()
        self._emit("spawn", rid, pid=proc.pid, blas_threads=proc.blas_threads)
        try:
            proc.wait_ready(timeout=self.ready_timeout)
        except BaseException:
            proc.kill()  # never leave an unsupervised child behind
            raise
        return proc

    def _install(self, rid: str, proc: ReplicaProcess) -> None:
        """Make ``proc`` the live incarnation of ``rid``.  Caller holds
        the lock."""
        self._replicas[rid] = proc
        self._down.discard(rid)
        self._beats[rid] = HeartbeatReader(proc.heartbeat_path)
        self._beat_seen[rid] = (-1, self._clock())
        self._emit("ready", rid, url=proc.base_url())

    def start(self) -> "Coordinator":
        for rid in sorted(self._specs):
            proc = self._spawn(rid, self._specs[rid])
            with self._lock:
                self._install(rid, proc)
        self._thread = threading.Thread(target=self._supervise, daemon=True,
                                        name="repro-fleet-supervisor")
        self._thread.start()
        return self

    def stop(self, graceful: bool = True) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
        for rid in sorted(self._specs):
            # Wait out a respawn in flight, so its child is stopped too.
            with self._spawning[rid], self._lock:
                proc = self._replicas.get(rid)
            if proc is None:
                continue
            if graceful:
                proc.terminate(timeout=self.drain_timeout)
            else:
                proc.kill()
            self._emit("stop", rid, returncode=proc.returncode())

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- supervision ---------------------------------------------------
    def _supervise(self) -> None:
        while not self._stop.wait(self.poll_interval):
            for rid in self.replica_ids():
                if self._stop.is_set():
                    return
                self._check_one(rid)

    def _check_one(self, rid: str) -> None:
        with self._lock:
            proc = self._replicas.get(rid)
            if proc is None or rid in self._paused or rid in self._failed:
                return
            alive = proc.alive()
            if alive and not self._stalled(rid):
                return
            if not alive:
                self._emit("exit", rid, returncode=proc.returncode())
            self._down.add(rid)
            self._restarts[rid] += 1
            if self._restarts[rid] > self.retry.attempts - 1:
                self._failed.add(rid)
                self._emit("escalated", rid, restarts=self._restarts[rid])
                delay = None
            else:
                delay = self._delays[min(self._restarts[rid] - 1,
                                         len(self._delays) - 1)] if self._delays else 0.0
        if alive:
            proc.kill()
        if delay is not None:
            self._respawn(rid, proc, delay)

    def _stalled(self, rid: str) -> bool:
        """True once the heartbeat ``seq`` has not moved for longer than
        ``stall_timeout``.  Caller holds the lock."""
        beat = self._beats[rid].read()
        if beat is None:
            return False
        now = self._clock()
        seq = int(beat.get("seq", -1))
        seen_seq, seen_at = self._beat_seen[rid]
        if seq != seen_seq:
            self._beat_seen[rid] = (seq, now)
            return False
        if now - seen_at <= self.stall_timeout:
            return False
        self._emit("stall", rid, seq=seq, stalled_for=now - seen_at)
        return True

    def _respawn(self, rid: str, dead: ReplicaProcess, delay: float) -> None:
        """Back off, then replace the dead incarnation ``dead``.  The
        sleep and the startup run without the lock."""
        with self._spawning[rid]:
            with self._lock:
                if self._replicas.get(rid) is not dead:
                    return  # a deploy replaced it while we waited
            if delay:
                self._sleep(delay)
            try:
                proc = self._spawn(rid, self.spec_of(rid))
            except (RuntimeError, TimeoutError) as exc:
                # The respawn itself failed; the next supervision pass sees
                # the dead child and burns another restart from the budget.
                self._emit("restart-failed", rid, error=str(exc))
                return
            with self._lock:
                self._install(rid, proc)
                self._emit("restart", rid, restarts=self._restarts[rid])

    # -- deploy hooks --------------------------------------------------
    def restart_replica(self, rid: str, spec: ReplicaSpec | None = None,
                        graceful: bool = True) -> dict:
        """Deliberately replace one replica (rolling deploys, rollbacks).

        Pauses supervision for ``rid`` so the intentional death is not
        double-counted as a crash, optionally swaps the spec (new
        checkpoint), and resumes supervision once the new incarnation
        announces.
        """
        with self._lock:
            if rid not in self._specs:
                raise KeyError(f"unknown replica {rid!r}")
            self._paused.add(rid)
        try:
            with self._spawning[rid]:
                with self._lock:
                    proc = self._replicas.get(rid)
                    if spec is not None:
                        self._specs[rid] = spec
                    spec = self._specs[rid]
                if proc is not None:
                    if graceful:
                        proc.terminate(timeout=self.drain_timeout)
                    else:
                        proc.kill()
                with self._lock:
                    self._failed.discard(rid)
                    self._down.add(rid)
                new = self._spawn(rid, spec)
                with self._lock:
                    self._install(rid, new)
                return dict(new.address or {})
        finally:
            with self._lock:
                self._paused.discard(rid)

    def kill_replica(self, rid: str) -> int | None:
        """Chaos hook: SIGKILL a replica *without* pausing supervision.

        The supervision thread sees the exit on its next poll and heals
        the fleet through the ordinary restart-budget path — exactly the
        sequence the ``replica_kill`` scenario asserts on.
        """
        with self._lock:
            proc = self._replicas.get(rid)
        if proc is None:
            return None
        return proc.kill()

    # -- views ---------------------------------------------------------
    def replica_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._specs)

    def urls(self) -> dict:
        """Live routing table: replica id → base URL.  A replica whose
        incarnation died and has not been replaced (yet) is absent."""
        with self._lock:
            return {
                rid: proc.base_url()
                for rid, proc in sorted(self._replicas.items())
                if rid not in self._down and proc.base_url() is not None
            }

    def spec_of(self, rid: str) -> ReplicaSpec:
        with self._lock:
            return self._specs[rid]

    def restarts(self, rid: str) -> int:
        with self._lock:
            return self._restarts[rid]

    def status(self) -> dict:
        with self._lock:
            replicas = {}
            for rid in sorted(self._specs):
                proc = self._replicas.get(rid)
                replicas[rid] = {
                    "replica_id": rid,
                    "pid": proc.pid if proc else None,
                    "blas_threads": proc.blas_threads if proc else None,
                    "alive": bool(proc and proc.alive()),
                    "url": proc.base_url() if proc else None,
                    "checkpoint": self._specs[rid].checkpoint,
                    "restarts": self._restarts[rid],
                    "paused": rid in self._paused,
                    "failed": rid in self._failed,
                }
            return {"replicas": replicas}
