"""In-memory spans recorded around calls into the program's layers.

A traced run installs wrappers on module attributes (functions and class
methods) for the duration of the traced phase and restores the originals
afterwards; the program itself is never edited.  Each span keeps its
name, start, end, parent span and free-form tags (batch or request id,
FLOP counts, step counts).  Spans are written as JSONL when the run ends.

A layer's *self* time is its span's duration minus the part of that
interval its child spans cover, so self times of nested layers add up to
the root span's duration without double counting.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

__all__ = ["Span", "Tracer", "self_times", "layer_totals"]


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; parents follow each thread's call stack."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._tls = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **tags):
        """Record one span around the ``with`` body; yields its tag dict."""
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = self.clock()
        try:
            yield tags
        finally:
            end = self.clock()
            stack.pop()
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent,
                                       threading.get_ident(), tags))

    def wrap(self, name: str, fn, tag=None):
        """``fn`` wrapped in a span; ``tag(args, kwargs, result)`` adds tags."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as tags:
                result = fn(*args, **kwargs)
                if tag is not None:
                    tags.update(tag(args, kwargs, result))
                return result

        return wrapper

    @contextmanager
    def patched(self, targets):
        """Install wrappers on ``(owner, attribute, span name[, tag])`` targets.

        ``owner`` is a module or a class.  The originals are restored on
        exit even when the body raises.
        """
        saved = []
        try:
            for owner, attr, name, *tag in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, *tag))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span), default=str) + "\n")


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id → duration minus the part covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    bounds = {s.id: (s.start, s.end) for s in spans}
    for s in spans:
        if s.parent in bounds:
            lo, hi = bounds[s.parent]
            start, end = max(s.start, lo), min(s.end, hi)
            if end > start:
                children.setdefault(s.parent, []).append((start, end))
    return {s.id: s.duration - _covered(children.get(s.id, ())) for s in spans}


def layer_totals(spans) -> dict[str, dict]:
    """Per span name: ``calls``, inclusive ``total`` and ``self`` seconds."""
    own = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "total": 0.0, "self": 0.0})
        row["calls"] += 1
        row["total"] += s.duration
        row["self"] += own[s.id]
    return out
