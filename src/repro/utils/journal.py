"""Append-only JSONL logs with crash-atomic appends.

Every record is one JSON object on one line, appended with a single
``os.write`` to an ``O_APPEND`` descriptor.  A process crash therefore
leaves at worst one torn *final* line, which the readers drop: an
append that never completed is a record that was never written.  Torn
or garbage lines anywhere *before* the tail still raise, because that
is corruption, not interruption.  :func:`read_records` implements that
rule for every JSONL file in the repo: the fleet's request journal
(:class:`repro.fleet.gateway.RequestJournal`) and span traces
(:func:`repro.obs.trace.load_trace`).  Before a writer's first append,
:func:`trim_torn_tail` cuts such a fragment off, so a resumed writer
never glues its first record onto it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["JournalError", "Journal", "read_records", "trim_torn_tail"]


class JournalError(ValueError):
    """The journal file is corrupt (torn/garbage line before the tail)."""


def read_records(path, required: tuple[str, ...] = ("type",)) -> list[dict]:
    """Parse every complete JSONL record of ``path``; a torn final line
    is dropped.

    A record is a dict holding every key in ``required``.  The tail is the
    last non-blank line.  Raises :class:`JournalError` for malformed lines
    that are *not* the tail — those cannot be explained by an interrupted
    append — and ``FileNotFoundError`` when there is no file.  This is the
    one JSONL reader: journals and trace files (:func:`repro.obs.trace.load_trace`)
    share its torn-tail rule.
    """
    lines = Path(path).read_bytes().decode("utf-8", errors="replace").splitlines()
    records: list[dict] = []
    last = max((i for i, line in enumerate(lines) if line.strip()), default=-1)
    for i, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict) or any(key not in obj for key in required):
                raise ValueError("not a journal record")
        except ValueError as exc:
            if i == last:
                break  # torn tail from a crashed append — ignore
            raise JournalError(
                f"{path}:{i + 1}: corrupt journal line ({exc})"
            ) from None
        records.append(obj)
    return records


def trim_torn_tail(path) -> None:
    """Truncate ``path`` to just after its last newline (no-op if absent).

    A crashed writer can leave an unterminated final line.  Appending
    straight after it would glue the next record onto the fragment: that
    record would then be dropped as torn, and the one after it would make
    the file unreadable.  Writers call this before their first append.
    """
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        return
    with fh:
        end = pos = fh.seek(0, os.SEEK_END)
        while pos > 0:
            step = min(pos, 1 << 16)
            fh.seek(pos - step)
            newline = fh.read(step).rfind(b"\n")
            if newline >= 0:
                pos += newline + 1 - step
                break
            pos -= step
        if pos < end:
            fh.truncate(pos)
            os.fsync(fh.fileno())


class Journal:
    """Append-only JSONL journal with crash-atomic appends.

    Each record is one ``os.write`` to an ``O_APPEND`` descriptor, so a
    killed writer tears at most the final line.  With ``fsync=False`` the
    appends are not flushed to the disk: the log survives its writer's
    death but not the machine's, and no append waits on the disk.
    """

    def __init__(self, path, fsync: bool = True):
        self.path = Path(path)
        self.fsync = fsync
        self._fd: int | None = None

    def append(self, record: dict) -> dict:
        """Append one record in a single write, fsynced unless the
        journal was opened with ``fsync=False``."""
        if "type" not in record:
            raise ValueError("journal records need a 'type' field")
        payload = (json.dumps(record, sort_keys=True) + "\n").encode()
        if self._fd is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            trim_torn_tail(self.path)
            self._fd = os.open(
                self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
        os.write(self._fd, payload)
        if self.fsync:
            os.fsync(self._fd)
        return record

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
