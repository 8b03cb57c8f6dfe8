"""Hybrid FNO–PDE driver: schedule, provenance, projection effects."""

import numpy as np
import pytest

from repro.core import HybridConfig, HybridFNOPDE, RolloutRecord, run_pure_fno, run_pure_pde
from repro.data import DataGenConfig, generate_sample
from repro.nn import Module
from repro.ns import SpectralNSSolver2D, divergence
from repro.tensor import Tensor

RNG = np.random.default_rng(181)


class NoisyIdentity(Module):
    """Mock FNO: repeats the newest snapshot with additive divergent noise.

    Lets the tests verify (a) the alternation schedule and (b) that PDE
    windows project the divergence away.
    """

    def __init__(self, n_in, n_out, n_fields=2, noise=0.0, seed=0):
        super().__init__()
        self.in_channels = n_in * n_fields
        self.out_channels = n_out * n_fields
        self.n_fields = n_fields
        self.n_out = n_out
        self.noise = noise
        self.rng = np.random.default_rng(seed)

    def forward(self, x):
        last = x.data[:, -self.n_fields :]
        out = np.concatenate([last] * self.n_out, axis=1)
        if self.noise:
            out = out + self.noise * self.rng.standard_normal(out.shape)
        return Tensor(out)


def _initial_window(n=32, n_in=3):
    cfg = DataGenConfig(n=n, reynolds=300, n_samples=1, warmup=0.1, duration=0.1,
                        sample_interval=0.05, solver="spectral", ic="band")
    s = generate_sample(cfg, np.random.default_rng(4))
    return s.velocity[:n_in]


class TestSchedule:
    def test_source_sequence(self):
        window = _initial_window(n_in=3)
        cfg = HybridConfig(n_in=3, n_out=2, n_fields=2, sample_interval=0.01, n_cycles=2)
        model = NoisyIdentity(3, 2)
        solver = SpectralNSSolver2D(32, 0.01)
        rec = HybridFNOPDE(model, solver, cfg).run(window)
        expected = ["init"] * 3 + (["fno"] * 2 + ["pde"] * 3) * 2
        assert rec.source == expected
        assert rec.n_snapshots == len(expected)

    def test_times_uniform(self):
        window = _initial_window(n_in=3)
        cfg = HybridConfig(n_in=3, n_out=1, n_fields=2, sample_interval=0.02, n_cycles=1)
        rec = HybridFNOPDE(NoisyIdentity(3, 1), SpectralNSSolver2D(32, 0.01), cfg).run(window, t0=0.5)
        assert rec.times[0] == 0.5
        assert np.allclose(np.diff(rec.times), 0.02)

    def test_channel_mismatch_rejected(self):
        cfg = HybridConfig(n_in=3, n_out=2, n_fields=2)
        with pytest.raises(ValueError):
            HybridFNOPDE(NoisyIdentity(4, 2), SpectralNSSolver2D(32, 0.01), cfg)

    def test_window_size_checked(self):
        cfg = HybridConfig(n_in=3, n_out=1, n_fields=2, n_cycles=1)
        driver = HybridFNOPDE(NoisyIdentity(3, 1), SpectralNSSolver2D(32, 0.01), cfg)
        with pytest.raises(ValueError):
            driver.run(_initial_window(n_in=2))


class TestDivergenceProjection:
    def test_pde_windows_restore_solenoidality(self):
        """FNO outputs are noisy/divergent; every PDE snapshot must be
        divergence-free again (Fig. 8 bottom-right mechanism)."""
        window = _initial_window(n_in=3)
        cfg = HybridConfig(n_in=3, n_out=2, n_fields=2, sample_interval=0.01, n_cycles=2)
        model = NoisyIdentity(3, 2, noise=0.05)
        rec = HybridFNOPDE(model, SpectralNSSolver2D(32, 0.01), cfg).run(window)
        for i, src in enumerate(rec.source):
            div = np.abs(divergence(rec.velocity[i])).max()
            if src == "pde":
                assert div < 1e-10, f"snapshot {i}"
            elif src == "fno":
                assert div > 1e-3, f"snapshot {i}"


class TestDivergenceFreeHybrid:
    def test_fno_windows_solenoidal_with_projection_model(self):
        """With the architectural Leray projection and isotropic
        normalisation, even the FNO-produced hybrid snapshots are
        divergence-free — the end-to-end fix for Fig. 8's failure mode."""
        from repro.core import ChannelFNOConfig, build_model
        from repro.data import FieldNormalizer

        window = _initial_window(n_in=3)
        cfg = HybridConfig(n_in=3, n_out=2, n_fields=2, sample_interval=0.01, n_cycles=2)
        model_cfg = ChannelFNOConfig(n_in=3, n_out=2, n_fields=2, modes1=4, modes2=4,
                                     width=8, n_layers=2, divergence_free=True)
        model = build_model(model_cfg, rng=np.random.default_rng(0), dtype=np.float64)
        norm = FieldNormalizer(n_fields=2, isotropic=True)
        norm.fit(window.reshape(1, -1, 32, 32))
        rec = HybridFNOPDE(model, SpectralNSSolver2D(32, 0.01), cfg, normalizer=norm).run(window)
        for i, src in enumerate(rec.source):
            if src == "fno":
                assert np.abs(divergence(rec.velocity[i])).max() < 1e-9, i


class TestRecordDiagnostics:
    def test_keys_and_shapes(self):
        window = _initial_window(n_in=3)
        rec = RolloutRecord(times=np.arange(3) * 0.1, velocity=window, source=["init"] * 3)
        d = rec.diagnostics()
        assert {"times", "kinetic_energy", "enstrophy", "global_enstrophy", "rms_divergence"} <= set(d)
        assert d["kinetic_energy"].shape == (3,)
        assert rec.vorticity.shape == (3, 32, 32)

    def test_traced_gauges_widen_a_float32_prediction(self):
        # A float32 model's raw prediction reaches the traced roll-out
        # gauges; they must be the float64 physics of the same snapshot.
        from repro import obs
        from repro.core.hybrid import _emit_rollout_diagnostics
        from repro.ns import enstrophy, kinetic_energy, vorticity_from_velocity

        u32 = _initial_window(n_in=1)[0].astype(np.float32)
        u64 = u32.astype(np.float64)
        obs.configure()
        try:
            _emit_rollout_diagnostics(u32, 2.0 * np.pi, t=0.0, phase="fno")
            registry = obs.metrics_registry()
            got = {name: registry.gauge(name).value for name in
                   ("rollout_kinetic_energy", "rollout_enstrophy", "rollout_rms_divergence")}
        finally:
            obs.shutdown()
        assert got == {
            "rollout_kinetic_energy": kinetic_energy(u64),
            "rollout_enstrophy": enstrophy(vorticity_from_velocity(u64)),
            "rollout_rms_divergence": float(np.sqrt(np.mean(divergence(u64) ** 2))),
        }


class TestPureDrivers:
    def test_pure_pde_record(self):
        window = _initial_window(n_in=3)
        solver = SpectralNSSolver2D(32, 0.01)
        rec = run_pure_pde(solver, window, n_snapshots=4, sample_interval=0.01)
        assert rec.source == ["init"] * 3 + ["pde"] * 4
        assert rec.velocity.shape == (7, 2, 32, 32)

    def test_pure_fno_record(self):
        window = _initial_window(n_in=3)
        rec = run_pure_fno(NoisyIdentity(3, 2), window, n_snapshots=5, sample_interval=0.01)
        assert rec.source == ["init"] * 3 + ["fno"] * 5
        assert rec.velocity.shape == (8, 2, 32, 32)

    def test_perfect_model_hybrid_matches_pde(self):
        """If the 'FNO' predicts exactly what the PDE would produce, the
        hybrid trajectory equals the pure-PDE trajectory."""
        n, nu, dt = 32, 0.01, 0.01
        window = _initial_window(n_in=2)

        class PDEOracle(Module):
            def __init__(self):
                super().__init__()
                self.in_channels = 4
                self.out_channels = 2

            def forward(self, x):
                solver = SpectralNSSolver2D(n, nu)
                solver.set_velocity(x.data[0, -2:])
                solver.advance(dt * solver.length)
                return Tensor(solver.velocity[None])

        cfg = HybridConfig(n_in=2, n_out=1, n_fields=2, sample_interval=dt, n_cycles=2)
        hybrid = HybridFNOPDE(PDEOracle(), SpectralNSSolver2D(n, nu), cfg).run(window)
        reference = run_pure_pde(SpectralNSSolver2D(n, nu), window,
                                 n_snapshots=hybrid.n_snapshots - 2, sample_interval=dt)
        assert np.allclose(hybrid.velocity, reference.velocity, atol=1e-7)


class TestBatchedDrivers:
    """Batched serving entry points match the single-request drivers."""

    def test_pure_fno_batched_matches_singles(self):
        from repro.core import run_pure_fno_batched

        model = NoisyIdentity(3, 2, noise=0.0)
        windows = np.stack([_initial_window(n=16, n_in=3) for _ in range(3)])
        batched = run_pure_fno_batched(model, windows, n_snapshots=4, sample_interval=0.01)
        singles = [
            run_pure_fno(model, windows[b], n_snapshots=4, sample_interval=0.01)
            for b in range(3)
        ]
        for rec, single in zip(batched, singles):
            assert np.array_equal(rec.velocity, single.velocity)
            assert rec.source == single.source
            assert np.array_equal(rec.times, single.times)

    def test_hybrid_batched_matches_single_runs(self):
        from repro.core import run_hybrid_batched

        cfg = HybridConfig(n_in=3, n_out=2, n_fields=2, sample_interval=0.01, n_cycles=2)
        model = NoisyIdentity(3, 2, noise=1e-3, seed=5)
        windows = np.stack([_initial_window(n=16, n_in=3) for _ in range(2)])
        nu = 2 * np.pi / 300

        def solver():
            return SpectralNSSolver2D(16, nu)

        # NoisyIdentity draws from an RNG → re-seed per run for comparability.
        model.rng = np.random.default_rng(5)
        batched = run_hybrid_batched(model, [solver(), solver()], windows, cfg)
        record = batched[0]
        assert record.source == ["init"] * 3 + (["fno"] * 2 + ["pde"] * 3) * 2
        assert batched[1].velocity.shape == record.velocity.shape
        # The driver delegates HybridFNOPDE.run → batch of one: exact match.
        model.rng = np.random.default_rng(5)
        single = HybridFNOPDE(model, solver(), cfg).run(windows[0])
        model.rng = np.random.default_rng(5)
        single_again = run_hybrid_batched(model, [solver()], windows[:1], cfg)[0]
        assert np.array_equal(single.velocity, single_again.velocity)

    def test_batched_rejects_mismatched_solvers(self):
        from repro.core import run_hybrid_batched

        cfg = HybridConfig(n_in=3, n_out=2, n_fields=2, sample_interval=0.01, n_cycles=1)
        model = NoisyIdentity(3, 2)
        windows = np.stack([_initial_window(n=16, n_in=3)] * 2)
        with pytest.raises(ValueError, match="solvers"):
            run_hybrid_batched(model, [SpectralNSSolver2D(16, 0.01)], windows, cfg)
