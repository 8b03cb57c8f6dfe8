"""Unit tests of the ledger's measurement machinery (no workload runs).

Run from the repository root::

    PYTHONPATH=src python -m pytest -q benchmarks/ledger/tests
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from ledger.loadgen import (
    percentile,
    poisson_schedule,
    run_closed_loop,
    run_latency_and_capacity,
    run_open_loop,
)
from ledger.metrics import END_TO_END, PER_LAYER, client_metrics, metric_table
from ledger.spans import Span, Tracer, layer_totals, self_times

ROOT = Path(__file__).resolve().parents[3]


class FakeClock:
    """Virtual time: ``sleep`` and simulated work advance it, nothing waits."""

    def __init__(self):
        self.now = 0.0
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self.now

    def sleep(self, seconds: float) -> None:
        with self._lock:
            self.now += max(seconds, 0.0)


# -- arrival schedule ----------------------------------------------------

def test_schedule_is_seeded():
    a = poisson_schedule(3.0, 120, seed=7)
    assert np.array_equal(a, poisson_schedule(3.0, 120, seed=7))
    assert not np.array_equal(a, poisson_schedule(3.0, 120, seed=8))
    assert np.all(np.diff(a) > 0) and a[0] > 0


@pytest.mark.parametrize("rate,n", [(3.0, 120), (2.5, 100), (10.0, 30)])
def test_schedule_mean_rate_is_nominal(rate, n):
    for seed in range(5):
        times = poisson_schedule(rate, n, seed)
        assert abs(n / times[-1] - rate) <= 0.1 * rate


def test_schedule_gaps_look_exponential():
    gaps = np.diff(poisson_schedule(4.0, 4000, seed=1))
    # Exponential gaps: coefficient of variation 1 (a fixed-rate clock has 0).
    assert 0.9 < gaps.std() / gaps.mean() < 1.1


# -- open loop: latency from the due time ----------------------------------

def test_stall_is_charged_to_requests_queued_behind_it():
    clock = FakeClock()
    service_s = {i: 0.001 for i in range(12)}
    service_s[2] = 0.150  # request 2 (due at 0.06 s) stalls until 0.21 s

    def send(i):
        clock.sleep(service_s[i])
        return True, {}

    schedule = [0.02 * (i + 1) for i in range(12)]
    records = run_open_loop(send, schedule, n_senders=1, clock=clock, sleep=clock.sleep)
    by_index = {r.index: r for r in records}
    assert sorted(by_index) == list(range(12))
    # Requests 3..9 fell due during the stall and went out late...
    for i in range(3, 10):
        assert by_index[i].lag > 0
        # ...and their latency counts from the due time, not the send time.
        assert by_index[i].latency == pytest.approx(by_index[i].lag + 0.001)
    assert by_index[3].latency == pytest.approx(0.211 - 0.08)
    # Before the stall and once the backlog drains, requests are on time.
    for i in (0, 1, 10, 11):
        assert by_index[i].lag == pytest.approx(0.0)
        assert by_index[i].latency == pytest.approx(0.001)
    metrics = client_metrics(records, rate=50.0)
    assert metrics["client.open_p50_ms"] == pytest.approx(45.5)  # a send-time clock: 1 ms
    assert metrics["client.lag_p90_ms"] > 100.0


def test_failed_requests_are_recorded_not_raised():
    def send(i):
        if i == 1:
            raise ConnectionError("replica gone")
        return True, {}

    records = run_open_loop(send, [0.0, 0.0, 0.0], n_senders=2)
    assert sorted(r.ok for r in records) == [False, True, True]
    assert "ConnectionError" in next(r for r in records if not r.ok).info["error"]


def test_closed_loop_capacity():
    def send(i):
        time.sleep(0.02)
        return True, {}

    records, capacity = run_closed_loop(send, 0.4, n_clients=2)
    assert len(records) >= 10
    assert 50 < capacity <= 101  # 2 clients × 50/s at most
    assert len({r.index for r in records}) == len(records)


def test_latency_blocks_send_one_at_a_time_and_capacity_blocks_two():
    in_flight, peaks = [0], []
    lock = threading.Lock()

    def send(i):
        with lock:
            in_flight[0] += 1
            peaks.append((i, in_flight[0]))
        time.sleep(0.01)
        with lock:
            in_flight[0] -= 1
        return True, {}

    latency, loaded, capacity = run_latency_and_capacity(send, 0.4, latency_share=0.5,
                                                         blocks=2)
    one_at_a_time = {r.index for r in latency}
    assert all(n == 1 for i, n in peaks if i in one_at_a_time)
    assert max(n for i, n in peaks if i not in one_at_a_time) == 2
    indices = [r.index for r in latency + loaded]
    assert sorted(indices) == list(range(len(indices)))
    assert all(r.latency >= 0.01 for r in latency)
    assert 100 < capacity <= 201  # two clients × 100/s at most


# -- percentile helper ----------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_percentile_matches_numpy(n):
    values = np.random.default_rng(n).lognormal(size=n)
    for q in (0, 10, 25, 50, 75, 90, 99, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


# -- spans and self time --------------------------------------------------

def _span(i, start, end, parent=None, name="x"):
    return Span(i, name, start, end, parent, 0)


def test_self_time_subtracts_child_coverage():
    spans = [
        _span(1, 0.0, 10.0, name="root"),
        _span(2, 1.0, 3.0, parent=1, name="a"),
        _span(3, 2.0, 5.0, parent=1, name="b"),   # overlaps a: [1, 5] covered once
        _span(4, 8.0, 12.0, parent=1, name="c"),  # clipped to the parent: [8, 10]
        _span(5, 1.5, 2.5, parent=2, name="d"),   # grandchild: only a loses it
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)
    totals = layer_totals(spans)
    assert totals["root"] == {"calls": 1, "total": 10.0, "self": pytest.approx(4.0)}


def test_self_times_of_nested_layers_sum_to_the_root():
    spans = [_span(1, 0, 6), _span(2, 1, 4, 1), _span(3, 2, 3, 2), _span(4, 4, 5, 1)]
    assert sum(self_times(spans).values()) == pytest.approx(6.0)


class _Layer:
    def work(self, n):
        return n + 1


def test_patched_wrappers_record_parents_and_restore():
    tracer = Tracer()
    original = _Layer.__dict__["work"]
    with tracer.patched([(_Layer, "work", "layer.work",
                          lambda args, kwargs, out: {"n": args[1]})]):
        with tracer.span("outer"):
            assert _Layer().work(2) == 3
    assert _Layer.__dict__["work"] is original
    outer = next(s for s in tracer.spans if s.name == "outer")
    inner = next(s for s in tracer.spans if s.name == "layer.work")
    assert inner.parent == outer.id and inner.tags == {"n": 2}
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_spans_from_threads_do_not_nest_across_threads():
    tracer = Tracer()

    def worker():
        with tracer.span("worker"):
            pass

    with tracer.span("main"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    (span,) = [s for s in tracer.spans if s.name == "worker"]
    assert span.parent is None


def test_trace_jsonl_round_trips(tmp_path):
    tracer = Tracer()
    with tracer.span("a", request=3):
        pass
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    (row,) = [json.loads(line) for line in path.read_text().splitlines()]
    assert row["name"] == "a" and row["tags"] == {"request": 3} and row["parent"] is None


# -- the printed metrics are the declared ones ------------------------------

def test_metric_names_and_units_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
    assert [m["name"] for m in bench["per_layer"]] == list(PER_LAYER)


def test_missing_end_to_end_metric_fails_but_missing_layer_reads_zero():
    measured = {name: 1.5 for name in END_TO_END}
    table = metric_table(measured, trace=False)
    assert table["p50_ms"] == {"value": 1.5, "unit": "ms"}
    del measured["setup_s"]
    with pytest.raises(KeyError):
        metric_table(measured, trace=False)
    layers = metric_table({"ns.steps": 7}, trace=True)
    assert layers["ns.steps"]["value"] == 7.0 and layers["lbm.steps"]["value"] == 0.0
    with pytest.raises(ValueError):
        metric_table({"ns.steps": float("nan")}, trace=True)


def test_benchmark_json_follows_its_schema():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["benchmarks/ledger"]
    assert (ROOT / bench["command"][1]).is_file()
    assert [w["name"] for w in bench["workloads"]] == [
        "fleet_fno", "direct_hybrid_trust", "train", "datagen"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert m["better"] in ("lower", "higher")
