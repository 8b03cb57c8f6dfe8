"""Shared-memory tensors: zero-copy numpy arrays across process boundaries.

A :class:`ShmTensor` is a numpy array whose storage lives in a POSIX
shared-memory segment (``multiprocessing.shared_memory``), so a parent
and its worker processes read the same physical pages — model weights
and batch buffers cross the process boundary as a ~100-byte
:class:`ShmHandle` instead of a pickled copy of the data.

A :class:`ShmArena` owns a set of segments and guarantees their
lifecycle: every ``create`` is paired with exactly one ``unlink`` (on
:meth:`ShmArena.close`, or via a ``weakref.finalize`` safety net if the
owner forgets), and attachment in workers never takes ownership — a
SIGKILLed worker can therefore never leak a segment: the parent (or its
resource tracker, if the parent itself dies) always unlinks.

Ownership rules:

* the **creating** process (the arena) owns the segment and is the only
  one allowed to unlink it;
* **attaching** processes map it read-only by default and must
  :meth:`ShmTensor.close` (unmap) — they never unlink.  Attachment also
  unregisters the segment from the attaching process's
  ``resource_tracker`` so a worker exiting cannot prematurely destroy a
  segment the parent still uses (CPython < 3.13 tracks every
  attach as an owner).
"""

from __future__ import annotations

import itertools
import os
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = ["ShmHandle", "ShmTensor", "ShmArena"]

_SEGMENT_COUNTER = itertools.count()


@dataclass(frozen=True)
class ShmHandle:
    """Picklable description of one shared-memory tensor.

    ``name`` is the segment name in the OS namespace (``/dev/shm/<name>``
    on Linux); ``shape``/``dtype`` reconstruct the numpy view on attach.
    """

    name: str
    shape: tuple
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


_ATTACH_LOCK = threading.Lock()


class _suppress_tracker_registration:
    """Keep an *attach* out of the resource tracker (attachers don't own).

    On CPython < 3.13 every ``SharedMemory(name=...)`` attach is
    registered with the resource tracker as if this process owned the
    segment.  Spawned workers share the parent's tracker process, so an
    attach in a worker followed by ``unregister`` would erase the
    *owner's* registration (and a clean worker exit without unregister
    would unlink memory the parent still uses).  Neither is acceptable:
    we temporarily no-op shared-memory registration around the attach
    call instead, leaving the creator's registration untouched — the
    tracker still reclaims the segment if the owning process dies
    without cleanup.
    """

    def __enter__(self):
        from multiprocessing import resource_tracker

        _ATTACH_LOCK.acquire()
        self._module = resource_tracker
        self._original = resource_tracker.register

        def _skip(name, rtype, _orig=self._original):  # pragma: no cover
            if rtype != "shared_memory":
                _orig(name, rtype)

        resource_tracker.register = _skip
        return self

    def __exit__(self, *exc):
        self._module.register = self._original
        _ATTACH_LOCK.release()


class ShmTensor:
    """A numpy array backed by one shared-memory segment."""

    def __init__(self, shm: shared_memory.SharedMemory, handle: ShmHandle,
                 owner: bool, writable: bool):
        self._shm = shm
        self.handle = handle
        self.owner = owner
        array = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype),
                           buffer=shm.buf)
        if not writable:
            array.flags.writeable = False
        self.array = array

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, shape, dtype, name: str | None = None) -> "ShmTensor":
        """Allocate a fresh zero-filled segment (creating process owns it)."""
        shape = tuple(int(s) for s in shape)
        dtype = np.dtype(dtype)
        nbytes = max(int(np.prod(shape, dtype=np.int64)) * dtype.itemsize, 1)
        if name is None:
            name = f"repro-{os.getpid()}-{next(_SEGMENT_COUNTER)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        handle = ShmHandle(name=shm.name, shape=shape, dtype=dtype.str)
        return cls(shm, handle, owner=True, writable=True)

    @classmethod
    def attach(cls, handle: ShmHandle, writable: bool = False) -> "ShmTensor":
        """Map an existing segment created elsewhere (no ownership)."""
        with _suppress_tracker_registration():
            shm = shared_memory.SharedMemory(name=handle.name)
        return cls(shm, handle, owner=False, writable=writable)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unmap the view.  The segment itself survives until unlink."""
        self.array = None
        try:
            self._shm.close()
        except BufferError:  # repro: ignore[RPR005] -- numpy views still alive; the mapping is released when they die, unlink still works
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; attachers must never unlink)."""
        if not self.owner:
            raise RuntimeError(
                f"refusing to unlink {self.handle.name!r}: this process only "
                f"attached the segment, it does not own it"
            )
        try:
            self._shm.unlink()
        except FileNotFoundError:  # repro: ignore[RPR005] -- already unlinked (idempotent teardown path)
            pass

    def __enter__(self) -> "ShmTensor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _finalize_tensors(lock: threading.Lock, tensors: dict) -> None:
    """weakref.finalize target: last-resort unlink of surviving segments."""
    with lock:
        for tensor in tensors.values():
            try:
                tensor.close()
                tensor.unlink()
            except Exception:  # repro: ignore[RPR005] -- weakref.finalize last resort: never raise at interpreter exit
                pass
        tensors.clear()


class ShmArena:
    """Owner of a family of shared-memory tensors.

    The arena is the only party that ever unlinks.  :meth:`close`
    unlinks everything still alive; a ``weakref.finalize`` guard does
    the same if the arena is dropped without close (and at interpreter
    exit), so segments cannot outlive the owning process even on error
    paths.
    """

    def __init__(self, name: str = "arena"):
        self.name = name
        self._lock = threading.Lock()
        self._tensors: dict[str, ShmTensor] = {}
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _finalize_tensors, self._lock, self._tensors
        )

    # ------------------------------------------------------------------
    def create(self, shape, dtype) -> ShmTensor:
        """Allocate a zero-filled shared tensor owned by this arena."""
        tensor = ShmTensor.create(shape, dtype)
        with self._lock:
            if self._closed:
                tensor.close()
                tensor.unlink()
                raise RuntimeError(f"arena {self.name!r} is closed")
            self._tensors[tensor.handle.name] = tensor
        return tensor

    def put(self, array: np.ndarray) -> ShmTensor:
        """Copy ``array`` into a fresh shared tensor (one memcpy)."""
        array = np.ascontiguousarray(array)
        tensor = self.create(array.shape, array.dtype)
        tensor.array[...] = array
        return tensor

    def live_segments(self) -> list[str]:
        """Names of segments this arena still owns (leak probe for tests)."""
        with self._lock:
            return sorted(self._tensors)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unlink every surviving segment."""
        with self._lock:
            self._closed = True
            tensors = list(self._tensors.values())
            self._tensors.clear()
        for tensor in tensors:
            tensor.close()
            tensor.unlink()

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
