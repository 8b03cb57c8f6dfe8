"""Hybrid cost model (paper Sec. VII accounting)."""

import numpy as np
import pytest

from repro.core import (
    ChannelFNOConfig,
    ComponentCosts,
    HybridConfig,
    HybridCostModel,
    build_model,
    measure_component_costs,
)
from repro.ns import SpectralNSSolver2D


def _model(costs=None, **cfg_kwargs):
    config = HybridConfig(**{"n_in": 10, "n_out": 5, "sample_interval": 0.005, **cfg_kwargs})
    if costs is None:
        costs = ComponentCosts(pde_seconds_per_interval=1.0, fno_seconds_per_window=0.4,
                               transfer_seconds=0.1)
    return HybridCostModel(costs, config)


class TestAnalyticModel:
    def test_pure_pde_rate(self):
        m = _model()
        # 200 intervals per t_c at 1 s each.
        assert m.pure_pde_seconds_per_tc() == pytest.approx(200.0)

    def test_pure_fno_rate(self):
        m = _model()
        # 200/5 = 40 windows at 0.5 s each (inference + transfer).
        assert m.pure_fno_seconds_per_tc() == pytest.approx(40 * 0.5)

    def test_hybrid_rate(self):
        m = _model()
        # One cycle covers 15 intervals in 0.5 + 10·1.0 seconds.
        cycles = 200 / 15
        assert m.hybrid_seconds_per_tc() == pytest.approx(cycles * 10.5)

    def test_speedup_definition(self):
        m = _model()
        assert m.speedup() == pytest.approx(
            m.pure_pde_seconds_per_tc() / m.hybrid_seconds_per_tc()
        )
        assert m.speedup() > 1.0

    def test_paper_scale_numbers(self):
        """Paper Sec. VII: PDE 20 s per 0.025 t_c; FNO 0.3 s + 0.1 s
        transfer per window of 5 × 0.005 t_c."""
        costs = ComponentCosts(
            pde_seconds_per_interval=20.0 / 5.0,  # 0.025 t_c = 5 intervals
            fno_seconds_per_window=0.3,
            transfer_seconds=0.1,
        )
        m = HybridCostModel(costs, HybridConfig(n_in=10, n_out=5, sample_interval=0.005))
        # Hybrid covers 1/3 of time with the (essentially free) FNO.
        assert m.fno_fraction_of_time_simulated() == pytest.approx(1 / 3)
        assert 1.3 < m.speedup() < 1.6

    def test_amortisation(self):
        costs = ComponentCosts(pde_seconds_per_interval=1.0, fno_seconds_per_window=0.0,
                               training_seconds=1000.0)
        m = HybridCostModel(costs, HybridConfig(n_in=5, n_out=5, sample_interval=0.01))
        # Saving per t_c: pure = 100 s; hybrid = 10 cycles × 5 s = 50 s → 50 s/t_c.
        assert m.amortisation_tcs() == pytest.approx(1000.0 / 50.0)

    def test_amortisation_infinite_when_no_saving(self):
        costs = ComponentCosts(pde_seconds_per_interval=0.1, fno_seconds_per_window=100.0,
                               training_seconds=10.0)
        m = HybridCostModel(costs, HybridConfig(n_in=2, n_out=2, sample_interval=0.01))
        assert m.amortisation_tcs() == float("inf")

    def test_summary_keys(self):
        summary = _model().summary()
        assert {"pure_pde_s_per_tc", "pure_fno_s_per_tc", "hybrid_s_per_tc",
                "speedup_vs_pde", "fno_time_fraction", "amortisation_tcs"} == set(summary)

    def test_validation(self):
        with pytest.raises(ValueError):
            HybridCostModel(ComponentCosts(1.0, 1.0), HybridConfig(sample_interval=0.0))


class TestMeasuredCosts:
    def test_measurement_positive_and_usable(self):
        cfg = ChannelFNOConfig(n_in=3, n_out=2, n_fields=2, modes1=4, modes2=4,
                               width=8, n_layers=2)
        model = build_model(cfg, rng=np.random.default_rng(0))
        solver = SpectralNSSolver2D(32, 0.01)
        solver.set_vorticity(np.random.default_rng(1).standard_normal((32, 32)) * 0.1)
        window = np.random.default_rng(2).standard_normal((1, cfg.in_channels, 32, 32))
        hycfg = HybridConfig(n_in=3, n_out=2, sample_interval=0.01)
        costs = measure_component_costs(model, solver, hycfg, window, repeats=2)
        assert costs.pde_seconds_per_interval > 0
        assert costs.fno_seconds_per_window > 0
        cm = HybridCostModel(costs, hycfg)
        assert np.isfinite(cm.speedup())
