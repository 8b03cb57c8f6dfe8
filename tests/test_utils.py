"""Utilities: RNG fan-out, timing, latency stats, the JSONL journal.

The process-parallel map moved to :mod:`repro.parallel`; its tests
live in ``tests/test_parallel.py`` now.
"""

import threading
import time

import numpy as np
import pytest

from repro.obs.metrics import LatencyStats, Timer, timed
from repro.utils import as_generator, spawn_rngs
from repro.utils.journal import Journal, JournalError, read_records


class TestRNG:
    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_as_generator_from_seed(self):
        a = as_generator(5).standard_normal(3)
        b = as_generator(5).standard_normal(3)
        assert np.array_equal(a, b)

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(0, 3)
        assert len(rngs) == 3
        draws = [g.standard_normal(4) for g in rngs]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_spawn_rngs_reproducible(self):
        a = spawn_rngs(7, 2)[1].standard_normal(3)
        b = spawn_rngs(7, 2)[1].standard_normal(3)
        assert np.array_equal(a, b)


class TestTiming:
    def test_timer_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.01)
        with t:
            time.sleep(0.01)
        assert t.elapsed >= 0.02
        assert t.n_intervals == 2
        assert t.mean == pytest.approx(t.elapsed / 2)

    def test_timer_mean_empty(self):
        assert Timer().mean == 0.0

    def test_timed_sink(self):
        messages = []
        with timed("label", sink=messages.append):
            pass
        assert len(messages) == 1
        assert messages[0].startswith("label:")

    def test_timer_concurrent_use(self):
        # Regression: the old single `_start` slot was clobbered when two
        # threads entered the same context manager, corrupting `elapsed`.
        t = Timer()
        n_threads, naps = 4, 3

        def work():
            for _ in range(naps):
                with t:
                    time.sleep(0.01)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert t.n_intervals == n_threads * naps
        # Every interval slept >= 0.01s; a clobbered start would yield
        # intervals near zero (or negative accumulation).
        assert t.elapsed >= n_threads * naps * 0.01 * 0.9

    def test_timer_nested_same_thread(self):
        t = Timer()
        with t:
            with t:
                time.sleep(0.01)
        assert t.n_intervals == 2
        assert t.elapsed >= 0.01


class TestLatencyStats:
    def test_percentiles_of_known_data(self):
        stats = LatencyStats()
        for v in range(1, 101):  # 1..100 ms
            stats.observe(v / 1000.0)
        assert stats.count == 100
        assert stats.percentile(50) == pytest.approx(0.0505, abs=1e-6)
        assert stats.percentile(95) == pytest.approx(0.09505, abs=1e-6)
        assert stats.percentile(0) == pytest.approx(0.001)
        assert stats.percentile(100) == pytest.approx(0.1)
        assert stats.max == pytest.approx(0.1)
        assert stats.mean == pytest.approx(0.0505)

    def test_empty(self):
        stats = LatencyStats()
        assert stats.percentile(50) == 0.0
        assert stats.summary()["count"] == 0

    def test_window_bounds_memory_not_lifetime_counters(self):
        stats = LatencyStats(window=4)
        for v in range(10):
            stats.observe(float(v))
        assert stats.count == 10
        assert stats.percentile(0) == 6.0  # only the last 4 samples remain

    def test_summary_keys(self):
        stats = LatencyStats()
        stats.observe(0.5)
        assert set(stats.summary()) == {"count", "mean", "p50", "p95", "max"}

    def test_concurrent_observe(self):
        stats = LatencyStats()

        def work():
            for _ in range(200):
                stats.observe(0.001)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert stats.count == 800
        assert stats.total == pytest.approx(0.8)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            LatencyStats(window=0)
        with pytest.raises(ValueError):
            LatencyStats().percentile(101)


class TestJournal:
    def test_append_load_round_trip_preserves_order(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        with journal:
            journal.append({"type": "run", "status": "created"})
            journal.append({"type": "step", "stage": "data", "status": "started"})
            journal.append({"type": "step", "stage": "data", "status": "done"})
        records = read_records(journal.path)
        assert [r.get("status") for r in records] == ["created", "started", "done"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_records(tmp_path / "absent.jsonl")

    def test_record_without_type_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="type"):
            Journal(tmp_path / "j.jsonl").append({"status": "done"})

    @pytest.mark.parametrize("after_tear", [b"", b"\n\n"], ids=["torn", "torn_then_blank"])
    def test_torn_final_line_is_dropped(self, tmp_path, after_tear):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"type": "step", "stage": "data", "status": "done"})
        journal.close()
        with open(journal.path, "ab") as fh:
            fh.write(b'{"type": "step", "stage": "tr' + after_tear)  # SIGKILL mid-append
        assert [r["stage"] for r in read_records(journal.path)] == ["data"]

    def test_append_after_torn_tail_resumes_cleanly(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"type": "run", "status": "created"})
        journal.append({"type": "step", "stage": "data", "status": "done"})
        journal.close()
        with open(journal.path, "ab") as fh:
            fh.write(b'{"type": "step", "stage": "tr')  # SIGKILL mid-append
        resumed = Journal(journal.path)
        resumed.append({"type": "step", "stage": "train", "status": "started"})
        resumed.append({"type": "step", "stage": "train", "status": "done"})
        resumed.close()
        assert [r["status"] for r in read_records(resumed.path)] == [
            "created", "done", "started", "done"]

    def test_garbage_before_the_tail_is_corruption(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"type": "run"}\nnot json\n{"type": "step"}\n')
        with pytest.raises(JournalError, match="corrupt journal line"):
            read_records(path)
