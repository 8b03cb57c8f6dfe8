"""Utilities: RNG fan-out, timing, latency stats.

The process-parallel map moved to :mod:`repro.parallel`; its tests
live in ``tests/test_parallel.py`` now.
"""

import threading
import time

import numpy as np
import pytest

from repro.obs.metrics import LatencyStats, Timer, timed
from repro.utils import as_generator, spawn_rngs


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
