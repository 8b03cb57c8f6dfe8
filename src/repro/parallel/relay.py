"""Observability relay: metrics and spans flow from workers to the parent.

Pool children are separate processes, so the parent's metrics registry
and tracer cannot see them directly.  Two channels close the gap:

* **Counter deltas** piggyback on every result message.  The worker
  snapshots its registry after each task (:func:`metrics_delta`) and
  ships only what changed; the parent folds each delta into its own
  registry (:func:`fold_metrics`) under an extra ``proc_worker`` label,
  so ``/metrics`` aggregates naturally across processes and still
  attributes load per worker.
* **Span records** stream to one private JSONL file per worker
  incarnation; on pool close :func:`merge_traces` re-ids them into the
  parent tracer so ``repro trace`` renders one merged tree.  Worker
  files use the torn-tail-tolerant format of :mod:`repro.obs.trace`, so
  a SIGKILLed worker contributes every record up to its last complete
  line.

Only counters relay — they are the only instrument whose cross-process
merge (summation) is exact.  Gauges/histograms/summaries stay visible
through spans and per-task results.
"""

from __future__ import annotations

from ..obs.trace import load_trace

__all__ = ["metrics_delta", "fold_metrics", "merge_traces"]


def metrics_delta(registry, seen: dict) -> list:
    """Counter increments since the previous call (worker side).

    ``seen`` is the worker's private high-water-mark dict, mutated in
    place.  Returns picklable ``[(name, labels_tuple, amount), ...]``
    rows with ``amount > 0``.
    """
    delta = []
    for name, kind, labels, instrument in registry.collect():
        if kind != "counter":
            continue
        value = instrument.value
        key = (name, labels)
        amount = value - seen.get(key, 0.0)
        if amount > 0:
            seen[key] = value
            delta.append((name, labels, amount))
    return delta


def fold_metrics(registry, delta: list, worker: int) -> None:
    """Apply a worker's counter delta to the parent registry.

    Each relayed counter gains a ``proc_worker`` label so per-process
    attribution survives aggregation; the unlabeled total is the sum
    over workers, exactly as Prometheus computes it.
    """
    for name, labels, amount in delta or ():
        merged = dict(labels)
        merged["proc_worker"] = str(worker)
        registry.counter(name, labels=merged).inc(amount)


def merge_traces(tracer, paths) -> int:
    """Fold worker JSONL trace files into the parent tracer.

    Span/event ids are remapped through the parent's id counter so they
    cannot collide with parent spans; parent links are preserved within
    each worker file and dropped across files.  ``t0`` keeps the
    worker's own monotonic origin — durations and intra-worker ordering
    stay exact, only cross-process alignment is approximate (the meta
    record's wall time is retained for that).  Returns the number of
    records merged.
    """
    merged = 0
    for path in paths:
        try:
            records = load_trace(path)
        except (OSError, ValueError):
            continue  # a worker that died before its first full record
        # A worker writes each span as it closes, so children precede
        # their parents in the file: assign every new id first, then
        # remap parents.
        id_map = {record["id"]: next(tracer._ids)
                  for record in records if record.get("id") is not None}
        pid = None
        for record in records:
            if record.get("type") == "meta":
                pid = record.get("pid")
                continue
            out = dict(record)
            if out.get("id") is not None:
                out["id"] = id_map[out["id"]]
            out["parent"] = id_map.get(out.get("parent"))
            if pid is not None:
                out["pid"] = pid
            tracer._write(out)
            merged += 1
    return merged
