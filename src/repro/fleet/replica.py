"""One serve replica as a supervised child process.

A replica is ``python -m repro.cli serve`` bound to an ephemeral port
with three fleet hooks the parent reads back:

* ``--announce`` — after binding, the child atomically writes
  ``{replica_id, host, port, pid}``; the coordinator polls this file and
  matches ``pid`` against the child it just spawned, so a stale announce
  from a previous incarnation is never mistaken for readiness;
* ``--heartbeat`` — the child emits :class:`repro.utils.heartbeat.Heartbeat`
  beats the coordinator uses for stall detection;
* SIGTERM → graceful drain (stop admission, finish in-flight, exit).

Each child also gets its share of the host's cores for BLAS: the
coordinator hands every incarnation a thread budget, and
:meth:`ReplicaProcess.spawn` fills :data:`BLAS_THREAD_VARS` with it
unless ``spec.env`` or the parent's environment already sets them.
OpenBLAS reads these once, when it loads, so they must be in the
child's environment at ``Popen``.

:class:`ReplicaProcess` owns exactly one incarnation: spawn → ready →
(terminate | kill).  Restarts create a *new* ReplicaProcess so restart
counting and announce freshness stay trivially correct.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ReplicaSpec", "ReplicaProcess"]

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything needed to (re)spawn one replica deterministically."""

    checkpoint: str
    model_name: str = "default"
    host: str = "127.0.0.1"
    workers: int = 1
    queue_depth: int = 64
    max_batch: int = 4
    default_mode: str = "fno"
    require_manifest: bool = False
    trust: str | None = None
    drain_grace: float = 5.0
    extra_args: tuple = ()
    env: dict = field(default_factory=dict)

    def command(self, replica_id: str, announce: Path, heartbeat: Path) -> list[str]:
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            "--model", f"{self.model_name}={self.checkpoint}",
            "--host", self.host, "--port", "0",
            "--replica-id", replica_id,
            "--announce", str(announce),
            "--heartbeat", str(heartbeat),
            "--serve-workers", str(self.workers),
            "--queue-depth", str(self.queue_depth),
            "--max-batch", str(self.max_batch),
            "--default-mode", self.default_mode,
            "--drain-grace", f"{self.drain_grace:g}",
        ]
        if self.require_manifest:
            cmd.append("--require-manifest")
        if self.trust is not None:
            cmd.extend(["--trust", self.trust])
        cmd.extend(self.extra_args)
        return cmd

    def with_checkpoint(self, checkpoint: str) -> "ReplicaSpec":
        from dataclasses import replace

        return replace(self, checkpoint=str(checkpoint))


class ReplicaProcess:
    """A single incarnation of a replica child process."""

    def __init__(self, replica_id: str, spec: ReplicaSpec, workdir: Path,
                 blas_budget: int):
        self.replica_id = replica_id
        self.spec = spec
        self.blas_budget = blas_budget
        self.blas_threads: int | str | None = None  # what the child got
        self.workdir = Path(workdir)
        self.announce_path = self.workdir / f"{replica_id}.announce.json"
        self.heartbeat_path = self.workdir / f"{replica_id}.heartbeat.json"
        self.log_path = self.workdir / f"{replica_id}.log"
        self.proc: subprocess.Popen | None = None
        self.address: dict | None = None

    # -- lifecycle -----------------------------------------------------
    def spawn(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        # Remove the previous incarnation's announce so readiness can
        # only be satisfied by the child we are about to start.
        self.announce_path.unlink(missing_ok=True)
        src_root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_root) + os.pathsep + env.get("PYTHONPATH", "")
        for var in BLAS_THREAD_VARS:  # spec.env > inherited > budget
            env.setdefault(var, str(self.blas_budget))
        env.update(self.spec.env)
        threads = env["OPENBLAS_NUM_THREADS"]
        self.blas_threads = int(threads) if threads.isdigit() else threads
        cmd = self.spec.command(self.replica_id, self.announce_path,
                                self.heartbeat_path)
        with open(self.log_path, "ab") as log:  # repro: ignore[RPR008] -- append-only child stdout log handed to Popen, not an artifact; torn tails are acceptable
            self.proc = subprocess.Popen(
                cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            )
        self.address = None

    def wait_ready(self, timeout: float = 30.0, poll: float = 0.05) -> dict:
        """Block until the child announces, or raise ``TimeoutError``.

        Readiness requires the announce file's ``pid`` to equal the
        spawned child's pid — an announce left behind by an earlier
        incarnation never counts.
        """
        if self.proc is None:
            raise RuntimeError(f"replica {self.replica_id} was never spawned")
        import json

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"replica {self.replica_id} exited with code "
                    f"{self.proc.returncode} before announcing "
                    f"(log: {self.log_path})"
                )
            try:
                payload = json.loads(self.announce_path.read_text())
            except (FileNotFoundError, ValueError):
                payload = None
            if payload and payload.get("pid") == self.proc.pid:
                self.address = payload
                return payload
            time.sleep(poll)
        raise TimeoutError(
            f"replica {self.replica_id} did not announce within {timeout:g}s"
        )

    # -- state ---------------------------------------------------------
    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def returncode(self) -> int | None:
        return self.proc.returncode if self.proc is not None else None

    def base_url(self) -> str | None:
        if not self.address:
            return None
        return f"http://{self.address['host']}:{self.address['port']}"

    # -- teardown ------------------------------------------------------
    def terminate(self, timeout: float = 10.0) -> int | None:
        """SIGTERM → graceful drain; escalate to SIGKILL past ``timeout``."""
        if self.proc is None or self.proc.poll() is not None:
            return self.returncode()
        self.proc.terminate()
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=5.0)
        return self.proc.returncode

    def kill(self) -> int | None:
        """SIGKILL — the chaos path: no drain, no goodbye."""
        if self.proc is None or self.proc.poll() is not None:
            return self.returncode()
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=10.0)
        return self.proc.returncode
