"""Trust-layer tests: golden physics values, policy-lattice semantics,
ensemble-UQ determinism, projection, guard fallback, and calibration.

The golden anchor is the Taylor–Green vortex — an exact decaying
solution of 2-D incompressible Navier–Stokes whose advection term
vanishes identically, so it is *exactly* divergence-free and its PDE
residual is pure time-discretisation error (O(dt²) for the midpoint
scheme the diagnostic uses).  The property-test classes at the bottom
cross-check the diagnostics against real spectral-solver trajectories
over the conftest seed matrix.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, injection
from repro.faults.policy import RolloutDiverged
from repro.trust import (
    TrustGuard,
    TrustPolicy,
    TrustReport,
    diagnose_prediction,
    ensemble_uq,
    member_windows,
    pde_residual_norm,
    project_velocity,
    radial_energy_spectrum,
    rms_divergence,
    set_enabled,
    spectrum_drift,
    trust_enabled,
)
from repro.trust.diagnostics import _dealias_mask, _multipliers, _shell_index
from tests.conftest import TRUST_SEEDS


def taylor_green(n: int, t: float, nu: float, dtype=np.float64) -> np.ndarray:
    """Exact TG velocity ``(2, n, n)`` on ``[0, 2π)²`` at time ``t``."""
    x = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    xg, yg = np.meshgrid(x, x, indexing="ij")
    decay = np.exp(-2.0 * nu * t)
    u = np.stack([np.cos(xg) * np.sin(yg) * decay,
                  -np.sin(xg) * np.cos(yg) * decay])
    return u.astype(dtype)


def gradient_field(n: int, dtype=np.float64) -> np.ndarray:
    """``u = ∇φ`` — purely compressible, maximally non-solenoidal."""
    x = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    xg, yg = np.meshgrid(x, x, indexing="ij")
    return np.stack([np.cos(xg) * np.sin(yg),
                     np.sin(xg) * np.cos(yg)]).astype(dtype)


@pytest.fixture()
def diagnostics_enabled():
    previous = set_enabled(True)
    yield
    set_enabled(previous)


class TestGoldenDiagnostics:
    """Analytic golden values on the Taylor–Green vortex."""

    def test_taylor_green_divergence_is_roundoff(self):
        u = taylor_green(32, 0.0, 1e-2)
        assert rms_divergence(u) < 1e-12

    def test_taylor_green_divergence_is_roundoff_at_float32(self):
        u = taylor_green(32, 0.0, 1e-2, dtype=np.float32)
        assert rms_divergence(u) < 1e-5

    def test_gradient_field_divergence_is_order_one(self):
        assert rms_divergence(gradient_field(32)) > 0.5

    def test_taylor_green_residual_decays_quadratically_with_dt(self):
        nu = 5e-2
        norms = []
        for dt in (0.2, 0.1, 0.05):
            u0 = taylor_green(32, 0.0, nu)
            u1 = taylor_green(32, dt, nu)
            norms.append(pde_residual_norm(u0, u1, dt, nu))
        assert norms[0] < 0.01
        # midpoint scheme: halving dt cuts the residual ~4x
        assert norms[1] < 0.5 * norms[0]
        assert norms[2] < 0.5 * norms[1]

    def test_unrelated_field_pair_residual_is_order_one(self):
        rng = np.random.default_rng(3)
        u0 = rng.standard_normal((2, 32, 32))
        u1 = rng.standard_normal((2, 32, 32))
        assert pde_residual_norm(u0, u1, 0.1, 1e-2) > 0.5

    def test_spectrum_drift_zero_for_identical_known_for_scaled(self):
        u = taylor_green(32, 0.0, 1e-2)
        assert spectrum_drift(u, u) == 0.0
        # E scales with amplitude²: drift(1.1·u, u) = 1.1² − 1 = 0.21
        assert spectrum_drift(1.1 * u, u) == pytest.approx(0.21, rel=1e-10)

    def test_spectrum_parseval(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((2, 24, 24))
        e = radial_energy_spectrum(u)
        assert float(e.sum()) == pytest.approx(0.5 * float(np.mean(u**2)) * 2, rel=1e-12)

    def test_validation_rejects_bad_shapes_and_dt(self):
        u = taylor_green(16, 0.0, 1e-2)
        with pytest.raises(ValueError, match="velocity"):
            rms_divergence(u[0])
        with pytest.raises(ValueError, match="matching"):
            pde_residual_norm(u, u[:, :8, :8], 0.1, 1e-2)
        with pytest.raises(ValueError, match="dt"):
            pde_residual_norm(u, u, 0.0, 1e-2)


class TestDiagnoseBundle:
    def test_bundle_on_taylor_green_pair(self, diagnostics_enabled):
        nu, dt = 5e-2, 0.05
        window = taylor_green(24, 0.0, nu)[None]
        prediction = np.stack([taylor_green(24, dt, nu),
                               taylor_green(24, 2 * dt, nu)])
        d = diagnose_prediction(window, prediction, dt, nu)
        assert d["finite"] is True
        assert d["rms_divergence"] < 1e-12
        assert d["pde_residual"] < 1e-2
        # drift vs window[-1] is the analytic energy decay 1 − e^{−4ν·2dt}
        assert d["spectrum_drift"] == pytest.approx(1.0 - np.exp(-8.0 * nu * dt), rel=1e-6)
        assert d["dtype"] == "float64" and d["grid"] == 24

    def test_bundle_reports_native_float32(self, diagnostics_enabled):
        window = taylor_green(16, 0.0, 1e-2, dtype=np.float32)[None]
        prediction = window.copy()
        d = diagnose_prediction(window, prediction, 0.1, 1e-2)
        assert d["dtype"] == "float32"

    def test_nonfinite_prediction_short_circuits(self, diagnostics_enabled):
        window = taylor_green(16, 0.0, 1e-2)[None]
        bad = window.copy()
        bad[0, 0, 0, 0] = np.nan
        d = diagnose_prediction(window, bad, 0.1, 1e-2)
        assert d["finite"] is False
        assert d["rms_divergence"] == np.inf
        assert d["pde_residual"] == np.inf
        assert d["spectrum_drift"] == np.inf

    def test_disabled_is_a_noop(self):
        previous = set_enabled(False)
        try:
            assert trust_enabled() is False
            window = taylor_green(16, 0.0, 1e-2)[None]
            assert diagnose_prediction(window, window.copy(), 0.1, 1e-2) is None
        finally:
            set_enabled(previous)


class TestSpectralGrid:
    @pytest.mark.parametrize("n", [16, 31, 32])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_helpers_match_inline_fftfreq_grid(self, n, dtype):
        # The reference: the rfft2 wavenumbers spelled out from fftfreq.
        length = 2.0 * np.pi
        k1 = 2.0 * np.pi / length * np.fft.fftfreq(n, d=1.0 / n)
        k2_half = 2.0 * np.pi / length * np.fft.rfftfreq(n, d=1.0 / n)
        kx = np.repeat(k1[:, None], k2_half.size, axis=1)
        ky = np.repeat(k2_half[None, :], n, axis=0)
        if n % 2 == 0:
            for k in (kx, ky):
                k[n // 2, :] = 0.0
                k[:, -1] = 0.0
        kx, ky = kx.astype(dtype), ky.astype(dtype)
        for got, want in zip(_multipliers(n, length, dtype),
                             (kx, ky, kx * kx + ky * ky)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

        k_cut = (2.0 / 3.0) * (np.pi / (length / n))
        mask = ((np.abs(k1[:, None]) < k_cut)
                & (np.abs(k2_half[None, :]) < k_cut)).astype(dtype)
        got = _dealias_mask(n, length, dtype)
        assert got.dtype == mask.dtype and np.array_equal(got, mask)

        k_mag = np.sqrt(k1[:, None] ** 2 + k2_half[None, :] ** 2)
        shells = np.minimum(np.rint(k_mag).astype(np.int64).ravel(), n // 2)
        idx, n_shells = _shell_index(n, length)
        assert n_shells == n // 2 + 1 and np.array_equal(idx, shells)


class TestPolicyLattice:
    def test_score_is_half_exactly_at_threshold(self):
        policy = TrustPolicy(max_rms_divergence=0.25)
        report = policy.assess({"finite": True, "rms_divergence": 0.25})
        assert report.components["rms_divergence"] == 0.5
        assert report.trusted is True  # >= min_score

    def test_overall_score_is_the_meet(self):
        policy = TrustPolicy(max_rms_divergence=1.0, max_pde_residual=1.0,
                             max_spectrum_drift=1.0)
        report = policy.assess({"finite": True, "rms_divergence": 0.1,
                                "pde_residual": 3.0, "spectrum_drift": 1.0})
        assert report.score == min(report.components.values())
        assert report.score == report.components["pde_residual"]
        assert report.trusted is False
        assert report.reason.startswith("trust: pde_residual")

    def test_infinite_metric_collapses_to_zero(self):
        policy = TrustPolicy()
        report = policy.assess({"finite": False, "rms_divergence": np.inf,
                                "pde_residual": np.inf, "spectrum_drift": np.inf})
        assert report.score == 0.0 and report.trusted is False

    def test_uncertainty_joins_the_lattice(self):
        policy = TrustPolicy(max_relative_spread=0.1)
        report = policy.assess({"finite": True, "rms_divergence": 0.0},
                               {"relative_spread": 0.3})
        assert report.components["relative_spread"] == pytest.approx(0.25)
        assert report.score == pytest.approx(0.25)

    def test_no_components_means_trusted(self):
        report = TrustPolicy().assess(None, None)
        assert report == TrustReport(score=1.0, trusted=True, components={})

    def test_round_trip_and_with_thresholds(self):
        policy = TrustPolicy(max_pde_residual=3.0, members=5, enforce=True)
        assert TrustPolicy.from_dict(policy.to_dict()) == policy
        tightened = policy.with_thresholds({"max_pde_residual": 0.5, "junk": 1})
        assert tightened.max_pde_residual == 0.5 and tightened.members == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            TrustPolicy(max_rms_divergence=0.0)
        with pytest.raises(ValueError, match="min_score"):
            TrustPolicy(min_score=1.5)
        with pytest.raises(ValueError, match="members"):
            TrustPolicy(members=0)

    def test_report_to_dict_is_json_ready(self):
        report = TrustPolicy().assess({"finite": True, "rms_divergence": 0.1})
        payload = report.to_dict()
        assert set(payload) == {"score", "trusted", "components", "reason"}
        json.dumps(payload)


class TestEnsembleDeterminism:
    def test_member_windows_are_seed_pure(self):
        window = taylor_green(16, 0.0, 1e-2, dtype=np.float32)[None]
        a = member_windows(window, members=4, sigma=0.01, seed=7)
        b = member_windows(window, members=4, sigma=0.01, seed=7)
        assert a.dtype == np.float32 and a.shape == (4, 1, 2, 16, 16)
        np.testing.assert_array_equal(a, b)
        c = member_windows(window, members=4, sigma=0.01, seed=8)
        assert not np.array_equal(a, c)

    def test_member_i_is_independent_of_ensemble_size(self):
        # the property that makes spread worker-count invariant: member i's
        # perturbation is a pure function of (seed, i)
        window = taylor_green(16, 0.0, 1e-2)[None]
        small = member_windows(window, members=2, sigma=0.05, seed=3)
        large = member_windows(window, members=6, sigma=0.05, seed=3)
        np.testing.assert_array_equal(small, large[:2])

    def test_ensemble_uq_is_bitwise_reproducible(self, trained_channel_model):
        model, config, normalizer, (X, _) = trained_channel_model
        window = X[0].reshape(config.n_in, 2, X.shape[-1], X.shape[-1])
        a = ensemble_uq(model, window, members=3, sigma=0.01, seed=11,
                        normalizer=normalizer)
        b = ensemble_uq(model, window, members=3, sigma=0.01, seed=11,
                        normalizer=normalizer)
        assert a == b
        assert a["spread_rms"] > 0.0 and a["relative_spread"] > 0.0
        json.dumps(a)


class TestProjection:
    def test_projection_kills_divergence_and_is_idempotent(self):
        u = gradient_field(32) + taylor_green(32, 0.0, 1e-2)
        assert rms_divergence(u) > 0.5
        p = project_velocity(u)
        assert p.shape == u.shape
        assert rms_divergence(p) < 1e-12
        np.testing.assert_allclose(project_velocity(p), p, atol=1e-13)

    def test_projection_preserves_solenoidal_fields_and_dtype(self):
        u = taylor_green(32, 0.0, 1e-2, dtype=np.float32)
        p = project_velocity(u)
        assert p.dtype == np.float32
        np.testing.assert_allclose(p, u, atol=1e-5)

    def test_projection_broadcasts_over_stacks(self):
        stack = np.stack([gradient_field(16), gradient_field(16)])
        p = project_velocity(stack)
        assert p.shape == stack.shape
        for snap in p:
            assert rms_divergence(snap) < 1e-12

    def test_projection_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="velocity"):
            project_velocity(np.zeros((3, 16, 16)))


class TestTrustGuard:
    def _block(self, u: np.ndarray) -> np.ndarray:
        # channels-major (B, S·n_fields, n, n) with one snapshot
        return u.reshape(1, 2, *u.shape[-2:])

    def test_rejects_non_solenoidal_block_with_trust_reason(self, diagnostics_enabled):
        guard = TrustGuard(policy=TrustPolicy(max_rms_divergence=0.05))
        reason = guard.diagnose(self._block(gradient_field(24)))
        assert reason is not None and reason.startswith("trust:")

    def test_accepts_solenoidal_block(self, diagnostics_enabled):
        guard = TrustGuard(policy=TrustPolicy(max_rms_divergence=0.05))
        assert guard.diagnose(self._block(taylor_green(24, 0.0, 1e-2))) is None

    def test_base_finiteness_check_still_wins(self, diagnostics_enabled):
        guard = TrustGuard(policy=TrustPolicy(max_rms_divergence=0.05))
        bad = self._block(gradient_field(24))
        bad[0, 0, 0, 0] = np.nan
        reason = guard.diagnose(bad)
        assert reason is not None and not reason.startswith("trust:")

    def test_disabled_diagnostics_disarm_the_trust_check(self):
        previous = set_enabled(False)
        try:
            guard = TrustGuard(policy=TrustPolicy(max_rms_divergence=0.05))
            assert guard.diagnose(self._block(gradient_field(24))) is None
        finally:
            set_enabled(previous)

    def test_guard_raises_through_rollout_machinery(self, diagnostics_enabled):
        guard = TrustGuard(policy=TrustPolicy(max_rms_divergence=0.05))
        reason = guard.diagnose(self._block(gradient_field(24)))
        exc = RolloutDiverged(step=3, reason=reason)
        assert "trust:" in str(exc)


class TestNoiseFault:
    def test_spec_round_trips_scale(self):
        spec = FaultSpec("rollout.step", "noise", scale=0.5)
        payload = spec.to_dict()
        assert payload["scale"] == 0.5
        assert FaultSpec(**payload) == spec
        # default scale is filtered out of the compact dict form
        assert "scale" not in FaultSpec("rollout.step", "nan").to_dict()

    def test_noise_is_seeded_finite_and_non_solenoidal(self, diagnostics_enabled):
        u = taylor_green(24, 0.0, 1e-2, dtype=np.float32)
        outs = []
        for _ in range(2):
            plan = FaultPlan([FaultSpec("rollout.step", "noise", scale=1.0)], seed=5)
            with injection.active(plan):
                outs.append(injection.fire_value("rollout.step", u))
        np.testing.assert_array_equal(outs[0], outs[1])
        noisy = outs[0]
        assert noisy.dtype == np.float32
        assert np.all(np.isfinite(noisy))
        assert not np.array_equal(noisy, u)
        # the point of the fault: invisible to NaN checks, visible to trust
        assert rms_divergence(noisy) > 10 * rms_divergence(u)

    def test_zero_scale_noise_is_identity(self):
        u = taylor_green(8, 0.0, 1e-2)
        plan = FaultPlan([FaultSpec("rollout.step", "noise")], seed=0)
        with injection.active(plan):
            out = injection.fire_value("rollout.step", u)
        np.testing.assert_array_equal(out, u)


@pytest.fixture(scope="module")
def trust_artifacts(tmp_path_factory, trained_channel_model, small_dataset):
    """Saved checkpoint + shard for calibration/CLI tests."""
    from repro.core import save_model
    from repro.data import save_samples

    model, config, normalizer, _ = trained_channel_model
    _, samples = small_dataset
    root = tmp_path_factory.mktemp("trust")
    model_path = root / "model.npz"
    data_path = root / "data.npz"
    save_model(model_path, model, config, normalizer)
    save_samples(data_path, samples, metadata={"reynolds": 400.0})
    return model_path, data_path


class TestCalibration:
    def test_calibrate_is_worker_count_invariant(self, trust_artifacts):
        from repro.trust.calibrate import calibrate

        model_path, data_path = trust_artifacts
        kwargs = dict(members=2, sigma=0.01, seed=4, quantile=0.9,
                      margin=1.5, stride=4, max_windows=8)
        serial = calibrate(model_path, data_path, n_workers=1, **kwargs)
        pooled = calibrate(model_path, data_path, n_workers=2, **kwargs)
        assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)

    def test_calibrate_report_shape_and_policy_round_trip(self, trust_artifacts):
        from repro.trust.calibrate import CAL_METRICS, calibrate

        model_path, data_path = trust_artifacts
        report = calibrate(model_path, data_path, members=2, stride=4,
                           max_windows=6, quantile=0.9)
        assert report["windows"] == 6
        for metric in CAL_METRICS:
            row = report["metrics"][metric]
            assert set(row) == {"mean", "p50", "q90", "max", "proposed_threshold"}
            assert row["proposed_threshold"] > 0.0
        policy = TrustPolicy.from_dict(report["policy"])
        assert policy.max_rms_divergence == report["policy"]["max_rms_divergence"]

    def test_cli_writes_report_and_exits_zero(self, trust_artifacts, tmp_path, capsys):
        from repro.cli import main

        model_path, data_path = trust_artifacts
        out = tmp_path / "calibration.json"
        code = main(["trust", "--model", str(model_path), "--data", str(data_path),
                     "--members", "2", "--stride", "4", "--max-windows", "4",
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "rms_divergence" in printed and "threshold" in printed
        report = json.loads(out.read_text())
        assert "policy" in report and report["windows"] == 4

    def test_cli_bad_inputs_exit_two(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["trust", "--model", str(tmp_path / "missing.npz"),
                     "--data", str(tmp_path / "missing-data.npz")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# property tests: diagnostics vs the real solver, over the seed matrix
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", TRUST_SEEDS)
class TestSolverDiagnosticProperties:
    def test_solver_snapshots_are_divergence_free(self, seed, seed_matrix_trajectories):
        _, sample = seed_matrix_trajectories[seed]
        scale = float(np.sqrt(np.mean(np.square(sample.velocity))))
        for snapshot in sample.velocity:
            assert rms_divergence(snapshot) < 1e-10 * max(scale, 1.0)

    def test_solver_trajectory_satisfies_the_pde(self, seed, seed_matrix_trajectories):
        config, sample = seed_matrix_trajectories[seed]
        dt = float(sample.times[1] - sample.times[0]) * 2.0 * np.pi
        nu = 2.0 * np.pi / config.reynolds
        for i in range(sample.n_snapshots - 1):
            res = pde_residual_norm(sample.velocity[i], sample.velocity[i + 1], dt, nu)
            assert res < 0.05, f"snapshot {i}: residual {res}"

    def test_decaying_energy_is_monotone(self, seed, seed_matrix_trajectories):
        _, sample = seed_matrix_trajectories[seed]
        energies = [float(radial_energy_spectrum(u).sum()) for u in sample.velocity]
        for a, b in zip(energies, energies[1:]):
            assert b <= a * (1.0 + 1e-6)

    def test_consecutive_spectrum_drift_is_bounded(self, seed, seed_matrix_trajectories):
        _, sample = seed_matrix_trajectories[seed]
        for i in range(sample.n_snapshots - 1):
            drift = spectrum_drift(sample.velocity[i + 1], sample.velocity[i])
            assert 0.0 <= drift < 0.5

    def test_solver_pair_scores_trusted(self, seed, seed_matrix_trajectories,
                                        diagnostics_enabled):
        config, sample = seed_matrix_trajectories[seed]
        dt = float(sample.times[1] - sample.times[0]) * 2.0 * np.pi
        nu = 2.0 * np.pi / config.reynolds
        window = sample.velocity[:1]
        prediction = sample.velocity[1:3]
        report = TrustPolicy().assess(diagnose_prediction(window, prediction, dt, nu))
        assert report.trusted is True and report.score > 0.5
