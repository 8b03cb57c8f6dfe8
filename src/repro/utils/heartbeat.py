"""Heartbeat files: a liveness signal one process writes and another reads.

A supervised child (``repro serve --heartbeat PATH``) runs a
:class:`Heartbeat` daemon thread that atomically rewrites ``PATH`` with
a monotonically increasing ``seq``.  Its supervisor
(:class:`repro.fleet.Coordinator`) polls the file through a
:class:`HeartbeatReader` and declares the child stalled when ``seq``
stops advancing.  The only thing the supervisor trusts is the file, so
a torn read must never look like a missed beat.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from .artifacts import atomic_write_json

__all__ = ["Heartbeat", "HeartbeatReader"]


class Heartbeat:
    """Daemon-thread heartbeat writer for a supervised child process.

    Each beat atomically rewrites ``path`` with ``{"pid", "seq",
    "interval"}``.  ``seq`` increments per beat, so a *restarted* child
    that reuses the path still advances the supervisor's liveness view
    (the pid changes, the seq restarts — either difference counts as a
    beat).
    """

    def __init__(self, path, interval: float = 0.25):
        self.path = Path(path)
        self.interval = float(interval)
        self._seq = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def beat(self) -> None:
        # start() beats from the caller's thread while _loop beats from
        # the daemon thread; the lock keeps seq increments exact and the
        # file contents monotonic.
        with self._lock:
            self._seq += 1
            atomic_write_json(
                self.path, {"pid": os.getpid(), "seq": self._seq, "interval": self.interval}
            )

    def start(self) -> "Heartbeat":
        self.beat()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="repro-heartbeat")
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.beat()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "Heartbeat":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class HeartbeatReader:
    """Reads a heartbeat file, holding the last good beat.

    The writer publishes beats via ``os.replace``, but a reader racing
    the replace (or a beat written by a non-atomic writer over NFS) can
    observe a partial or empty JSON document.  A torn read must not look
    like a *missed* beat — a supervisor that treats it as silence will
    SIGKILL a perfectly live child — so :meth:`read` returns the previous
    good value (``None`` before the first one) whenever the file is
    absent, torn or unreadable.  Staleness logic stays with the caller,
    which also keeps the injectable clock it measures with.
    """

    def __init__(self, path):
        self.path = Path(path)
        self.last: dict | None = None

    def read(self) -> dict | None:
        try:
            beat = json.loads(self.path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError, OSError):
            return self.last  # absent or torn: keep the last good beat
        self.last = beat
        return beat
