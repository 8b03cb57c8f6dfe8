"""Host stamp, memory readings, process hygiene and the honest-skip exception."""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import signal
import sys
import time

__all__ = ["Skip", "host_stamp", "require_cores", "peak_rss_mb", "vm_hwm_mb",
           "adopt_orphans", "reap_children"]

_PR_SET_CHILD_SUBREAPER = 36


class Skip(RuntimeError):
    """The workload cannot run on this host; the reason is printed, not hidden."""


def host_stamp() -> dict:
    """What every ledger row records about the machine it ran on."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "REPRO_COMPILE": os.environ.get("REPRO_COMPILE"),
        "REPRO_FFT_WORKERS": os.environ.get("REPRO_FFT_WORKERS"),
    }


def require_cores(n: int = 2) -> None:
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cores or 1) < n:
        raise Skip(f"needs {n} cores, this host offers {cores}")


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process (plus its largest reaped child)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    scale = 1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0  # bytes on macOS
    return kib / scale


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, from ``/proc``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise Skip(f"/proc/{pid}/status has no VmHWM line")


def adopt_orphans() -> None:
    """Become the parent of every descendant whose own parent exits first.

    The fleet's replicas and multiprocessing's resource tracker outlive
    the process that started them; as a Linux child subreaper this
    process inherits them, so :func:`reap_children` can end and wait for
    them before the run exits.  Elsewhere this is a no-op.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    me, kids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            kids.append(int(entry))
    return kids


def _reap_exited() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def reap_children(timeout: float = 10.0) -> None:
    """Stop every child still alive, then wait until each has ended.

    multiprocessing's resource tracker ignores SIGTERM and is meant to
    outlive its parent; it is stopped first the way it expects (its pipe
    closed, then waited for), so it still unlinks leaked shared memory.
    Anything left gets SIGTERM, then SIGKILL after ``timeout`` seconds;
    the wait gives up after twice ``timeout``, so a run cannot hang here.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except ChildProcessError:
            pass
    _reap_exited()
    if not sys.platform.startswith("linux"):
        return
    deadline = time.monotonic() + timeout
    signalled: dict[int, int] = {}
    while time.monotonic() < deadline + timeout:
        kids = _children()
        if not kids:
            return
        sig = signal.SIGKILL if time.monotonic() > deadline else signal.SIGTERM
        for pid in kids:
            if signalled.get(pid) != sig:
                signalled[pid] = sig
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)
        _reap_exited()
