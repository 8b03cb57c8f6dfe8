"""Metric primitives and the registry behind ``/metrics`` and ``/stats``.

Three instrument kinds, all lock-protected and cheap enough for
per-batch updates:

* :class:`Counter` — monotone total (requests served, solver steps).
* :class:`Gauge` — last-written value (loss, learning rate, enstrophy).
* :class:`WindowedSummary` — lifetime count/total/max plus exact
  percentiles over a sliding window of the most recent observations;
  the repo's one percentile engine.

A :class:`MetricsRegistry` names instruments (optionally with labels),
renders Prometheus text exposition for the serve ``/metrics`` endpoint
and JSON snapshots for ``/stats``.
"""

from __future__ import annotations

import re
import threading
from collections import deque

__all__ = ["Counter", "Gauge", "WindowedSummary", "MetricsRegistry"]


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


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

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

    ``counter/gauge/summary`` return the existing instrument
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
            value = inst.summary() if kind == "summary" else inst.value
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
                lines.append(f"# TYPE {full} {kind}")
                seen_types.add(full)
            label_str = _prom_labels(labels)
            if kind in ("counter", "gauge"):
                lines.append(f"{full}{label_str} {inst.value:g}")
            else:  # summary
                for q in (0.5, 0.95):
                    ql = (labels or ()) + (("quantile", f"{q:g}"),)
                    lines.append(f"{full}{_prom_labels(tuple(ql))} {inst.percentile(q * 100):g}")
                lines.append(f"{full}_sum{label_str} {inst.total:g}")
                lines.append(f"{full}_count{label_str} {inst.count}")
        return "\n".join(lines) + ("\n" if lines else "")
