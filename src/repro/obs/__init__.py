"""repro.obs — tracing, metrics and profiling for long-running workloads.

The paper's workloads are hours long (Table I trainings up to 23 h,
hybrid roll-outs alternating solver and network for thousands of steps,
5000-simulation dataset sweeps); this package is the visibility layer
over all of them.  Three pieces:

* **Spans** (:mod:`repro.obs.trace`) — nested timed regions streamed to
  a JSONL file and rendered by ``repro trace``.
* **Metrics** (:mod:`repro.obs.metrics`) — counters, gauges and
  windowed summaries in a registry the serve ``/metrics`` endpoint
  exposes in Prometheus text format.
* **Profiling** (:mod:`repro.obs.hooks`) — ``hooks.profile()`` sets one
  flag that solver step loops and compiled plans read once per call to
  time themselves; it patches nothing, so a profiled run executes the
  same program.

Everything is off by default.  Enable per process::

    import repro.obs as obs
    obs.configure(trace_path="runs/train.jsonl")     # spans + metrics
    ...
    obs.shutdown()

or per environment (picked up by the CLI and the benchmark entry
points): ``REPRO_OBS=1`` enables metrics+spans in memory and
``REPRO_OBS=path/to/trace.jsonl`` streams spans there.

Instrumented call sites follow one pattern: ``obs.span(...)`` always
returns a context manager that measures its duration (the training loop
reuses it for ``epoch_seconds``), but records are only emitted while a
tracer is configured; anything *expensive to compute* — physics
diagnostics, per-step events — hides behind ``if obs.enabled():``.
"""

from __future__ import annotations

import os
import threading

from .metrics import Counter, Gauge, MetricsRegistry, WindowedSummary
from .trace import Span, Tracer, build_tree, load_trace, render_tree
from . import hooks

__all__ = [
    "configure", "configure_from_env", "shutdown", "enabled",
    "span", "event", "metric_gauge", "metric_counter", "current_tracer",
    "metrics_registry", "render_prometheus",
    "Tracer", "Span", "MetricsRegistry", "Counter", "Gauge", "WindowedSummary",
    "load_trace", "build_tree", "render_tree",
    "hooks",
]

_lock = threading.Lock()
_tracer: Tracer | None = None
_registry = MetricsRegistry()


def configure(trace_path=None, registry: MetricsRegistry | None = None,
              keep_records: bool = True) -> Tracer:
    """Enable observability for this process; returns the active tracer.

    Re-configuring replaces the previous tracer (closing its file).
    """
    global _tracer, _registry
    with _lock:
        if _tracer is not None:
            _tracer.close()
        if registry is not None:
            _registry = registry
        _tracer = Tracer(trace_path, keep_records=keep_records)
    return _tracer


def configure_from_env(environ=os.environ) -> Tracer | None:
    """Honour ``REPRO_OBS`` (used by the CLI and the benchmarks).

    ``REPRO_OBS`` unset/empty/"0" leaves observability off; "1" enables
    in-memory tracing; any other value is treated as a JSONL path.
    """
    value = environ.get("REPRO_OBS", "").strip()
    if not value or value == "0":
        return None
    return configure(trace_path=None if value == "1" else value)


def shutdown() -> None:
    """Disable observability; flush + close the trace file."""
    global _tracer
    with _lock:
        if _tracer is not None:
            _tracer.close()
            _tracer = None


def enabled() -> bool:
    """True while a tracer is configured (guards expensive diagnostics)."""
    return _tracer is not None


def current_tracer() -> Tracer | None:
    return _tracer


def metrics_registry() -> MetricsRegistry:
    """The process-wide default registry (serve keeps its own per service)."""
    return _registry


def render_prometheus(prefix: str = "repro_") -> str:
    return _registry.render_prometheus(prefix=prefix)


def span(name: str, **attrs) -> Span:
    """A timed region; always measures, emits only when tracing is on.

    The returned :class:`Span` exposes ``.duration`` after exit even
    with observability disabled, so call sites can use one code path for
    both their own timing needs and the trace.
    """
    return Span(_tracer, name, attrs or None)


def event(name: str, **attrs) -> None:
    """Record an instantaneous measurement (no-op when disabled)."""
    tracer = _tracer
    if tracer is not None:
        tracer.event(name, **attrs)


def metric_gauge(name: str, value: float, labels: dict | None = None) -> None:
    """Set a gauge on the default registry (no-op when disabled)."""
    if _tracer is not None:
        _registry.gauge(name, labels=labels).set(value)


def metric_counter(name: str, amount: float = 1.0, labels: dict | None = None) -> None:
    """Bump a counter on the default registry (no-op when disabled)."""
    if _tracer is not None:
        _registry.counter(name, labels=labels).inc(amount)
