"""Span tracer: nested timed regions streamed to a JSONL file.

A span is a named, timed region of execution.  Spans nest through a
thread-local stack, so concurrent serve workers and the training loop
each build their own branch of the tree without locking on the hot path;
only the JSONL emit takes a lock.  Every record is one JSON object per
line::

    {"type": "meta", "wall_time": ..., "pid": ...}
    {"type": "span", "name": "train.epoch", "id": 7, "parent": 3,
     "thread": 140.., "t0": 1.234, "dur": 0.456, "attrs": {"epoch": 2}}
    {"type": "event", "name": "hybrid.diag", "id": 9, "parent": 8, ...}

``t0`` is seconds since the tracer was created (monotonic clock), so
spans order and subtract correctly even across NTP steps.  The matching
reader/renderer (:func:`load_trace`, :func:`render_tree`) backs the
``repro trace`` CLI.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path

from ..utils.journal import read_records

__all__ = ["Span", "Tracer", "SpanRecord", "load_trace", "build_tree", "render_tree"]


class Span:
    """One timed region; use as a context manager via :meth:`Tracer.span`.

    ``duration`` is available after exit (seconds, monotonic), which is
    how the training loop keeps ``history.epoch_seconds`` and the trace
    in exact agreement.
    """

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "start", "duration", "error")

    def __init__(self, tracer: "Tracer | None", name: str, attrs: dict | None):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id: int | None = None
        self.parent_id: int | None = None
        self.start = 0.0
        self.duration: float | None = None
        self.error: str | None = None

    def set(self, **attrs) -> "Span":
        """Attach attributes after entry (e.g. a loss known only at exit)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        tracer = self.tracer
        if tracer is not None:
            stack = tracer._stack()
            self.parent_id = stack[-1] if stack else None
            self.span_id = next(tracer._ids)
            stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self.start
        tracer = self.tracer
        if tracer is None:
            return
        stack = tracer._stack()
        assert stack and stack[-1] == self.span_id, \
            f"span {self.name!r} exited out of order (entered from another thread?)"
        stack.pop()
        if exc_type is not None:
            self.error = exc_type.__name__
        tracer._emit_span(self)


class Tracer:
    """Collects spans/events in memory and (optionally) streams JSONL.

    Parameters
    ----------
    path:
        JSONL destination.  ``None`` keeps records in memory only —
        enough for tests and for the end-of-run summary.
    keep_records:
        Also retain every record in :attr:`records` when writing to a
        file (default True; switch off for very long runs).
    """

    def __init__(self, path=None, keep_records: bool = True):
        self.path = Path(path) if path is not None else None
        self.keep_records = bool(keep_records) or self.path is None
        self.records: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._fh = None
        self._perf0 = time.perf_counter()
        self._closed = False
        # repro: ignore[RPR006] -- calendar time intended: the meta record anchors t0 to the wall clock
        self._write({"type": "meta", "wall_time": time.time(), "pid": os.getpid()})

    # -- span API ------------------------------------------------------
    def span(self, name: str, **attrs) -> Span:
        return Span(self, name, attrs or None)

    def event(self, name: str, **attrs) -> None:
        """Record an instantaneous point (a measurement, not a region)."""
        stack = self._stack()
        record = {
            "type": "event",
            "name": name,
            "id": next(self._ids),
            "parent": stack[-1] if stack else None,
            "thread": threading.get_ident(),
            "t0": time.perf_counter() - self._perf0,
        }
        if attrs:
            record["attrs"] = attrs
        self._write(record)

    def current_span_id(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- plumbing ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _emit_span(self, span: Span) -> None:
        record = {
            "type": "span",
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "thread": threading.get_ident(),
            "t0": span.start - self._perf0,
            "dur": span.duration,
        }
        if span.attrs:
            record["attrs"] = span.attrs
        if span.error is not None:
            record["error"] = span.error
        self._write(record)

    def _write(self, record: dict) -> None:
        with self._lock:
            if self._closed:
                return
            if self.keep_records:
                self.records.append(record)
            if self.path is not None:
                if self._fh is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    # Unbuffered binary: each record is one write syscall,
                    # so a crash (even SIGKILL) can tear at most the final
                    # line — never interleave or hold lines in a userspace
                    # buffer.  load_trace drops a torn tail.
                    self._fh = self.path.open("wb", buffering=0)  # repro: ignore[RPR008] -- append-only JSONL sink; load_trace tolerates a torn tail
                line = json.dumps(record, default=_jsonable) + "\n"
                self._fh.write(line.encode("utf-8"))

    def flush(self) -> None:
        """Force records to disk (fsync; writes are already unbuffered)."""
        with self._lock:
            if self._fh is not None:
                os.fsync(self._fh.fileno())

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def _jsonable(obj):
    try:
        return float(obj)
    except (TypeError, ValueError):
        return str(obj)


# ---------------------------------------------------------------------------
# reading + rendering (the `repro trace` CLI)
# ---------------------------------------------------------------------------


class SpanRecord(dict):
    """A parsed trace line; plain dict with attribute sugar."""

    @property
    def is_span(self) -> bool:
        return self.get("type") == "span"


def load_trace(path) -> list[SpanRecord]:
    """Parse a JSONL trace file; raises ValueError on malformed lines.

    A malformed *final* line is dropped instead: the tracer writes one
    record per syscall, so a crashed process can leave at most a torn
    tail — that must not make the rest of the trace unreadable.  The
    rule is :func:`repro.utils.journal.read_records`'s, which raises
    :class:`~repro.utils.journal.JournalError` (a ``ValueError``).
    """
    return [SpanRecord(record) for record in read_records(path)]


class _Node:
    __slots__ = ("path", "name", "count", "total", "child_total", "children")

    def __init__(self, path: tuple, name: str):
        self.path = path
        self.name = name
        self.count = 0
        self.total = 0.0
        self.child_total = 0.0
        self.children: dict[str, _Node] = {}

    @property
    def self_time(self) -> float:
        return max(self.total - self.child_total, 0.0)


def build_tree(records: list) -> list[_Node]:
    """Aggregate span records into a name-path tree with total/self times.

    Sibling spans with the same name collapse into one node carrying a
    count — the natural view for loops (``train.epoch`` ×30).
    """
    spans = {r["id"]: r for r in records if r.get("type") == "span"}
    paths: dict[int, tuple] = {}

    def path_of(span_id: int) -> tuple:
        cached = paths.get(span_id)
        if cached is not None:
            return cached
        record = spans[span_id]
        parent = record.get("parent")
        prefix = path_of(parent) if parent in spans else ()
        result = paths[span_id] = prefix + (record["name"],)
        return result

    roots: dict[str, _Node] = {}
    for span_id, record in spans.items():
        path = path_of(span_id)
        level, node = roots, None
        for depth, name in enumerate(path):
            node = level.get(name)
            if node is None:
                node = level[name] = _Node(path[: depth + 1], name)
            level = node.children
        node.count += 1
        node.total += float(record.get("dur", 0.0))
    # Child totals for self-time, bottom-up per node.
    def fill(node: _Node) -> None:
        node.child_total = 0.0
        for child in node.children.values():
            fill(child)
            node.child_total += child.total
    for root in roots.values():
        fill(root)
    return sorted(roots.values(), key=lambda n: -n.total)


def render_tree(records: list, min_self_ms: float = 0.0, max_depth: int | None = None) -> str:
    """Text rendering of the aggregated span tree (``repro trace``)."""
    roots = build_tree(records)
    n_spans = sum(1 for r in records if r.get("type") == "span")
    n_events = sum(1 for r in records if r.get("type") == "event")
    lines = [f"trace: {n_spans} span(s), {n_events} event(s)"]
    if not roots:
        return lines[0]
    header = f"{'span':<48} {'count':>7} {'total':>10} {'self':>10}"
    lines.append(header)
    lines.append("-" * len(header))

    def walk(node: _Node, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        label = "  " * depth + node.name
        lines.append(
            f"{label:<48} {node.count:>7} {node.total:>9.3f}s {node.self_time:>9.3f}s"
        )
        children = sorted(node.children.values(), key=lambda n: -n.total)
        for child in children:
            if child.self_time * 1000.0 >= min_self_ms or child.children:
                walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)
