"""Metric primitives and the registry behind ``/metrics`` and ``/stats``.

Four instrument kinds, all lock-protected and cheap enough for per-batch
updates:

* :class:`Counter` — monotone total (requests served, solver steps).
* :class:`Gauge` — last-written value (loss, learning rate, enstrophy).
* :class:`Histogram` — fixed-bucket distribution with interpolated
  percentiles; bounded memory regardless of observation count.
* :class:`WindowedSummary` — exact sliding-window percentiles over the
  most recent observations (the old ``LatencyStats``, absorbed here).

A :class:`MetricsRegistry` names instruments (optionally with labels),
renders Prometheus text exposition for the serve ``/metrics`` endpoint
and JSON snapshots for ``/stats``.  The accumulating :class:`Timer` and
:func:`timed` helpers complete the timing surface.
"""

from __future__ import annotations

import bisect
import re
import threading
import time
from collections import deque
from contextlib import contextmanager

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "WindowedSummary",
    "LatencyStats",
    "MetricsRegistry",
    "Timer",
    "timed",
    "DEFAULT_LATENCY_BUCKETS",
]

# Geometric ~1-2.5-5 ladder from 0.1 ms to 60 s — wide enough for tensor
# ops at the bottom and paper-scale training epochs at the top.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """Monotonically increasing total."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge:
    """Last-written value (optionally adjusted incrementally)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with linear-interpolated percentiles.

    ``buckets`` are ascending upper bounds; observations above the last
    bound land in an implicit overflow bucket.  Memory is O(buckets)
    forever, unlike a sample window — the right trade for unbounded
    streams (every tensor op, every solver step).  Percentiles assume a
    uniform distribution inside each bucket, so the error is at most one
    bucket width (the test suite pins this against ``np.percentile``).
    """

    def __init__(self, buckets=DEFAULT_LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self._lock = threading.Lock()
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        idx = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def bucket_counts(self) -> list[int]:
        with self._lock:
            return list(self._counts)

    def percentile(self, q: float) -> float:
        """Interpolated percentile (``q`` in [0, 100]); 0 when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        with self._lock:
            counts = list(self._counts)
            count, lo, hi = self.count, self.min, self.max
        return self._interpolate(counts, count, lo, hi, q)

    def _interpolate(self, counts, count, lo, hi, q: float) -> float:
        if not count:
            return 0.0
        rank = q / 100.0 * count
        cumulative = 0
        for idx, n in enumerate(counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                lower = self.bounds[idx - 1] if idx > 0 else min(lo, self.bounds[0])
                upper = self.bounds[idx] if idx < len(self.bounds) else hi
                lower = max(lower, lo)
                upper = min(upper, hi)
                if upper <= lower:
                    return lower
                frac = (rank - cumulative) / n
                return lower + frac * (upper - lower)
            cumulative += n
        return hi

    def summary(self) -> dict:
        """``{count, mean, p50, p95, max}`` snapshot (same shape as summaries).

        All fields come from one locked copy, so a concurrent
        ``observe`` can never yield a count that disagrees with the
        percentiles next to it.
        """
        with self._lock:
            counts = list(self._counts)
            count, total = self.count, self.total
            lo, hi = self.min, self.max
        return {
            "count": count,
            "mean": total / count if count else 0.0,
            "p50": self._interpolate(counts, count, lo, hi, 50.0),
            "p95": self._interpolate(counts, count, lo, hi, 95.0),
            "max": hi if count else 0.0,
        }


class WindowedSummary:
    """Thread-safe tracker with exact sliding-window percentiles.

    Keeps lifetime ``count``/``total``/``max`` plus a bounded window of
    the most recent observations from which percentiles are computed —
    the serving ``/stats`` endpoint reports p50/p95 from here.
    """

    def __init__(self, window: int = 2048) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self._lock = threading.Lock()
        self._samples: deque[float] = deque(maxlen=int(window))
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        seconds = float(seconds)
        with self._lock:
            self._samples.append(seconds)
            self.count += 1
            self.total += seconds
            if seconds > self.max:
                self.max = seconds

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile (``q`` in [0, 100]) over the window."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        with self._lock:
            samples = sorted(self._samples)
        return self._interpolate(samples, q)

    @staticmethod
    def _interpolate(samples: list, q: float) -> float:
        if not samples:
            return 0.0
        pos = (len(samples) - 1) * q / 100.0
        lo = int(pos)
        hi = min(lo + 1, len(samples) - 1)
        frac = pos - lo
        return samples[lo] * (1.0 - frac) + samples[hi] * frac

    def summary(self) -> dict:
        """``{count, mean, p50, p95, max}`` snapshot (seconds), taken
        under one lock acquisition so the fields agree with each other."""
        with self._lock:
            samples = sorted(self._samples)
            count, total, peak = self.count, self.total, self.max
        return {
            "count": count,
            "mean": total / count if count else 0.0,
            "p50": self._interpolate(samples, 50.0),
            "p95": self._interpolate(samples, 95.0),
            "max": peak,
        }


# Historical name for callers that predate the obs subsystem.
LatencyStats = WindowedSummary


class Timer:
    """Accumulating stopwatch, safe for concurrent and nested use.

    Each thread keeps its own stack of start times, so overlapping
    ``with t:`` blocks from different threads (or nested blocks in one
    thread) each contribute their own interval; the accumulated totals
    are lock-protected.

    >>> t = Timer()
    >>> with t:
    ...     pass
    >>> t.elapsed >= 0
    True
    """

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.n_intervals = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def __enter__(self) -> "Timer":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(time.perf_counter())
        return self

    def __exit__(self, *exc) -> None:
        stack = getattr(self._local, "stack", None)
        assert stack, "Timer.__exit__ without a matching __enter__ in this thread"
        interval = time.perf_counter() - stack.pop()
        with self._lock:
            self.elapsed += interval
            self.n_intervals += 1

    @property
    def mean(self) -> float:
        with self._lock:
            return self.elapsed / self.n_intervals if self.n_intervals else 0.0


@contextmanager
def timed(label: str, sink=None):
    """Context manager printing (or collecting) the elapsed time."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    message = f"{label}: {elapsed:.3f}s"
    if sink is None:
        print(message)
    else:
        sink(message)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram, "summary": WindowedSummary}


def _label_key(labels: dict | None) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))


def _prom_name(name: str) -> str:
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _prom_labels(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{_prom_name(k)}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class MetricsRegistry:
    """Named, optionally labelled instruments with get-or-create semantics.

    ``counter/gauge/histogram/summary`` return the existing instrument
    when called again with the same name and labels; asking for the same
    name with a different kind raises — one name, one meaning.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._kinds: dict[str, str] = {}
        self._instruments: dict[tuple[str, tuple], object] = {}

    # -- instrument constructors --------------------------------------
    def counter(self, name: str, labels: dict | None = None) -> Counter:
        return self._get(name, "counter", labels, Counter)

    def gauge(self, name: str, labels: dict | None = None) -> Gauge:
        return self._get(name, "gauge", labels, Gauge)

    def histogram(self, name: str, labels: dict | None = None,
                  buckets=DEFAULT_LATENCY_BUCKETS) -> Histogram:
        return self._get(name, "histogram", labels, lambda: Histogram(buckets))

    def summary(self, name: str, labels: dict | None = None, window: int = 2048) -> WindowedSummary:
        return self._get(name, "summary", labels, lambda: WindowedSummary(window))

    def _get(self, name, kind, labels, factory):
        key = (name, _label_key(labels))
        with self._lock:
            registered = self._kinds.get(name)
            if registered is not None and registered != kind:
                raise ValueError(f"metric {name!r} already registered as a {registered}")
            self._kinds[name] = kind
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = self._instruments[key] = factory()
            return instrument

    # -- introspection -------------------------------------------------
    def collect(self) -> list[tuple[str, str, tuple, object]]:
        """Sorted ``(name, kind, labels, instrument)`` rows."""
        with self._lock:
            rows = [
                (name, self._kinds[name], labels, instrument)
                for (name, labels), instrument in self._instruments.items()
            ]
        return sorted(rows, key=lambda r: (r[0], r[2]))

    def labelled(self, name: str) -> dict[tuple, object]:
        """All instruments registered under ``name``, keyed by label tuple."""
        with self._lock:
            return {
                labels: inst for (n, labels), inst in self._instruments.items() if n == name
            }

    def snapshot(self) -> dict:
        """JSON-friendly dump of every instrument."""
        out: dict[str, object] = {}
        for name, kind, labels, inst in self.collect():
            if kind == "counter" or kind == "gauge":
                value = inst.value
            else:
                value = inst.summary()
            if labels:
                bucket = out.setdefault(name, {})
                bucket[",".join(f"{k}={v}" for k, v in labels)] = value
            else:
                out[name] = value
        return out

    def render_prometheus(self, prefix: str = "repro_") -> str:
        """Prometheus text exposition format (v0.0.4) for ``/metrics``."""
        lines: list[str] = []
        seen_types: set[str] = set()
        for name, kind, labels, inst in self.collect():
            full = _prom_name(prefix + name)
            if full not in seen_types:
                prom_kind = {"counter": "counter", "gauge": "gauge",
                             "histogram": "histogram", "summary": "summary"}[kind]
                lines.append(f"# TYPE {full} {prom_kind}")
                seen_types.add(full)
            label_str = _prom_labels(labels)
            if kind in ("counter", "gauge"):
                lines.append(f"{full}{label_str} {inst.value:g}")
            elif kind == "histogram":
                cumulative = 0
                for bound, count in zip(inst.bounds, inst.bucket_counts()):
                    cumulative += count
                    le = (labels or ()) + (("le", f"{bound:g}"),)
                    lines.append(f"{full}_bucket{_prom_labels(tuple(le))} {cumulative}")
                le = (labels or ()) + (("le", "+Inf"),)
                lines.append(f"{full}_bucket{_prom_labels(tuple(le))} {inst.count}")
                lines.append(f"{full}_sum{label_str} {inst.total:g}")
                lines.append(f"{full}_count{label_str} {inst.count}")
            else:  # summary
                for q in (0.5, 0.95):
                    ql = (labels or ()) + (("quantile", f"{q:g}"),)
                    lines.append(f"{full}{_prom_labels(tuple(ql))} {inst.percentile(q * 100):g}")
                lines.append(f"{full}_sum{label_str} {inst.total:g}")
                lines.append(f"{full}_count{label_str} {inst.count}")
        return "\n".join(lines) + ("\n" if lines else "")
