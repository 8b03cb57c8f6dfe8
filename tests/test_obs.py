"""repro.obs: spans, metrics, the profiling switch and the trace/profile CLIs."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.obs.metrics import MetricsRegistry, WindowedSummary
from repro.obs.trace import build_tree, load_trace, render_tree
from repro.serve import BatchPolicy, BatchQueue, PredictRequest, WorkerPool


@pytest.fixture(autouse=True)
def _shutdown_obs():
    yield
    obs.shutdown()


def _spans(tracer):
    return [r for r in tracer.records if r["type"] == "span"]


# ---------------------------------------------------------------------------


class TestSpans:
    def test_nesting_parents_and_emit_order(self):
        tracer = obs.configure()
        with obs.span("outer", epoch=1):
            with obs.span("inner"):
                pass
            with obs.span("inner"):
                pass
        spans = _spans(tracer)
        # Children emit on exit, before their parent.
        assert [s["name"] for s in spans] == ["inner", "inner", "outer"]
        outer = spans[-1]
        assert outer["parent"] is None
        assert all(s["parent"] == outer["id"] for s in spans[:-1])
        assert outer["attrs"] == {"epoch": 1}
        assert all(s["dur"] >= 0 for s in spans)

    def test_set_attaches_attrs_after_entry(self):
        tracer = obs.configure()
        with obs.span("train.epoch") as sp:
            sp.set(loss=0.5)
        assert _spans(tracer)[0]["attrs"]["loss"] == 0.5
        assert sp.duration is not None and sp.duration >= 0

    def test_exception_records_error_and_unwinds_stack(self):
        tracer = obs.configure()
        with pytest.raises(RuntimeError):
            with obs.span("boom"):
                raise RuntimeError("x")
        (span,) = _spans(tracer)
        assert span["error"] == "RuntimeError"
        assert tracer.current_span_id() is None

    def test_events_attach_to_current_span(self):
        tracer = obs.configure()
        with obs.span("parent"):
            obs.event("diag", ke=1.25)
        events = [r for r in tracer.records if r["type"] == "event"]
        spans = _spans(tracer)
        assert events[0]["parent"] == spans[0]["id"]
        assert events[0]["attrs"] == {"ke": 1.25}

    def test_disabled_mode_is_a_noop_but_still_times(self):
        obs.shutdown()
        assert not obs.enabled()
        with obs.span("anything") as sp:
            obs.event("ignored")
            obs.metric_counter("never_created_total")
        assert sp.duration is not None and sp.duration >= 0
        assert "never_created_total" not in obs.metrics_registry().snapshot()

    def test_thread_safety_under_serve_worker_pool(self):
        tracer = obs.configure()

        def handler(batch):
            with obs.span("work.batch", size=len(batch)):
                with obs.span("work.inner"):
                    pass
            for request in batch:
                request.finish(result={"ok": True})

        queue = BatchQueue(BatchPolicy(max_batch=2, max_wait_ms=1, max_queue=64))
        pool = WorkerPool(queue, handler, n_workers=4)
        pool.start()
        try:
            requests = [PredictRequest(key=i % 8, payload={}) for i in range(32)]
            threads = [
                threading.Thread(target=queue.submit, args=(r,)) for r in requests
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for r in requests:
                assert r.wait(10.0) == {"ok": True}
        finally:
            pool.stop()

        spans = _spans(tracer)
        batches = {s["id"]: s for s in spans if s["name"] == "work.batch"}
        inners = [s for s in spans if s["name"] == "work.inner"]
        assert batches and len(inners) == len(batches)
        for inner in inners:
            parent = batches[inner["parent"]]
            # Nesting never crosses threads: each inner span's parent is a
            # batch span recorded by the same worker thread.
            assert parent["thread"] == inner["thread"]
        # Every root-level span is a batch (no orphaned inners).
        assert all(s["parent"] is None for s in batches.values())


# ---------------------------------------------------------------------------


class TestMetrics:
    def test_windowed_summary_is_exact_over_window(self):
        ws = WindowedSummary(window=4)
        for v in (1.0, 2.0, 3.0, 4.0, 100.0):
            ws.observe(v)
        # 1.0 fell out of the window; lifetime stats keep it.
        assert ws.percentile(50.0) == pytest.approx(3.5)
        assert ws.count == 5
        assert ws.max == 100.0

    def test_registry_kind_conflict_and_labels(self):
        reg = MetricsRegistry()
        reg.counter("x_total").inc()
        with pytest.raises(ValueError):
            reg.gauge("x_total")
        reg.counter("y_total", labels={"k": "a"}).inc(2)
        reg.counter("y_total", labels={"k": "b"}).inc(3)
        snap = reg.snapshot()
        assert snap["y_total"] == {"k=a": 2.0, "k=b": 3.0}

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total").inc(7)
        reg.summary("lat_seconds", labels={"hop": "queue"}).observe(0.5)
        text = reg.render_prometheus()
        assert "# TYPE repro_reqs_total counter" in text
        assert "repro_reqs_total 7" in text
        assert "# TYPE repro_lat_seconds summary" in text
        assert 'repro_lat_seconds{hop="queue",quantile="0.5"} 0.5' in text
        assert 'repro_lat_seconds{hop="queue",quantile="0.95"} 0.5' in text
        assert 'repro_lat_seconds_count{hop="queue"} 1' in text


# ---------------------------------------------------------------------------


class TestProfilingHooks:
    def test_profile_leaves_the_profiled_program_alone(self):
        import scipy.fft

        from repro import compile as rc
        from repro.core import ChannelFNOConfig, build_model
        from repro.ns import SpectralNSSolver2D
        from repro.obs import hooks
        from repro.tensor import fft_ops
        from repro.tensor import tensor as tensor_module

        config = ChannelFNOConfig()  # paper shape: 10 -> 5 steps, width 20, modes 12
        rng = np.random.default_rng(0)
        model = build_model(config, rng=rng, dtype=np.float32)
        x = rng.standard_normal((2, config.in_channels, 64, 64)).astype(np.float32)
        plan, _ = rc.trace_model(model, x)
        want = plan.execute(x).copy()
        assert sum(plan.step_seconds) == 0.0

        registry = MetricsRegistry()
        obs.configure(registry=registry)
        solver = SpectralNSSolver2D(16, 0.02, dt=0.01)
        solver.set_vorticity(rng.standard_normal((16, 16)))
        observers = tensor_module._OBSERVERS
        with hooks.profile():
            assert fft_ops._fft is scipy.fft
            assert tensor_module._OBSERVERS is observers
            got = plan.execute(x).copy()
            solver.advance(0.02)
        assert not hooks.PROFILING
        assert got.dtype == np.float32 and np.array_equal(got, want)
        assert all(t > 0 for t in plan.step_seconds)
        assert registry.summary("solver_advance_seconds").count == 1

    def test_solver_steps_recorded_only_when_profiling(self):
        from repro.ns import SpectralNSSolver2D
        from repro.obs import hooks

        registry = MetricsRegistry()
        obs.configure(registry=registry)
        solver = SpectralNSSolver2D(16, 0.02, dt=0.01)
        solver.set_vorticity(np.random.default_rng(0).standard_normal((16, 16)))
        solver.advance(0.02)  # profiling off: nothing recorded
        assert registry.snapshot() == {}
        with hooks.profile():
            solver.advance(0.02)
        snap = registry.snapshot()
        assert snap["solver_steps_total"] == {"solver=SpectralNSSolver2D": 2.0}
        assert snap["solver_advance_seconds"]["count"] == 1


# ---------------------------------------------------------------------------


class TestTraceRoundTrip:
    def _write_trace(self, path):
        obs.configure(trace_path=path)
        with obs.span("fit"):
            for _ in range(3):
                with obs.span("epoch"):
                    with obs.span("batch"):
                        pass
        obs.event("mark", value=1)
        obs.shutdown()

    def test_jsonl_loads_and_builds_tree(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._write_trace(path)
        records = load_trace(path)
        assert records[0]["type"] == "meta" and "wall_time" in records[0]
        roots = build_tree(records)
        assert [r.name for r in roots] == ["fit"]
        epoch = roots[0].children["epoch"]
        assert epoch.count == 3 and epoch.children["batch"].count == 3
        assert roots[0].total >= epoch.total

    def test_cli_renders_tree(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        self._write_trace(path)
        assert cli_main(["trace", str(path), "--events"]) == 0
        out = capsys.readouterr().out
        assert "fit" in out and "epoch" in out and "batch" in out
        assert "7 span(s), 1 event(s)" in out
        assert "mark" in out

    def test_malformed_trace_is_an_error(self, tmp_path, capsys):
        # Mid-file garbage is corruption and must raise ...
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "span"}\nnot json\n{"type": "event"}\n')
        with pytest.raises(ValueError):
            load_trace(path)
        assert cli_main(["trace", str(path)]) == 2

    @pytest.mark.parametrize("after_tear", [b"", b"\n\n"], ids=["torn", "torn_then_blank"])
    def test_torn_final_line_is_dropped(self, tmp_path, after_tear):
        # ... but a torn *final* line is what a crashed writer leaves
        # behind, and must not make the rest of the trace unreadable;
        # blank lines after it do not make it any less the tail.
        path = tmp_path / "torn.jsonl"
        self._write_trace(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7] + after_tear)  # tear the last record mid-line
        whole = load_trace(path)
        assert whole and whole[0]["type"] == "meta"
        assert all("type" in r for r in whole)

    def test_profile_cli_runs_script_and_writes_trace(self, tmp_path, capsys):
        script = tmp_path / "tiny.py"
        script.write_text(
            "from repro import obs\n"
            "from repro.obs import hooks\n"
            "with obs.span('tiny.work'):\n"
            "    total = sum(range(1000))\n"
            "print('total', total, 'profiling', hooks.PROFILING)\n"
        )
        out = tmp_path / "tiny.jsonl"
        assert cli_main(["profile", "--out", str(out), str(script)]) == 0
        printed = capsys.readouterr().out
        assert "tiny.work" in printed
        assert "total 499500 profiling True" in printed
        records = load_trace(out)
        assert any(r.get("name") == "tiny.work" for r in records)
        # The profile run shut the tracer and the profiling switch off again.
        assert not obs.enabled()
        assert not obs.hooks.PROFILING

    def test_render_tree_depth_and_filter(self, tmp_path):
        path = tmp_path / "run.jsonl"
        self._write_trace(path)
        text = render_tree(load_trace(path), max_depth=0)
        assert "fit" in text and "epoch" not in text
