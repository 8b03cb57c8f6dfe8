"""Navier–Stokes solvers: exact decay, conservation, stability, interface."""

import numpy as np
import pytest

from repro.data import band_limited_vorticity
from repro.ns import (
    FDNSSolver2D,
    SpectralNSSolver2D,
    enstrophy,
    kinetic_energy,
    velocity_from_vorticity,
)
from repro.ns.fd_solver import _arakawa_jacobian, _laplacian

RNG = np.random.default_rng(91)


def taylor_green(n, k=1):
    x = np.arange(n) * 2 * np.pi / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    return 2 * k * np.cos(k * X) * np.cos(k * Y)


SOLVERS = [SpectralNSSolver2D, FDNSSolver2D]


class TestConstruction:
    @pytest.mark.parametrize("cls", SOLVERS)
    def test_validation(self, cls):
        with pytest.raises(ValueError):
            cls(2, 0.1)
        with pytest.raises(ValueError):
            cls(16, -1.0)

    def test_spectral_scheme_validation(self):
        with pytest.raises(ValueError):
            SpectralNSSolver2D(16, 0.1, scheme="euler")

    @pytest.mark.parametrize("cls", SOLVERS)
    def test_state_shape_check(self, cls):
        s = cls(16, 0.1)
        with pytest.raises(ValueError):
            s.set_vorticity(np.zeros((8, 8)))
        with pytest.raises(ValueError):
            s.set_velocity(np.zeros((2, 8, 8)))


class TestTaylorGreenDecay:
    @pytest.mark.parametrize("cls,tol", [(SpectralNSSolver2D, 1e-10), (FDNSSolver2D, 1e-3)])
    def test_exact_viscous_decay(self, cls, tol):
        n, nu = 32, 0.02
        s = cls(n, nu)
        w0 = taylor_green(n)
        s.set_vorticity(w0)
        s.advance(1.0)
        expected = w0 * np.exp(-2 * nu * 1.0)
        err = np.abs(s.vorticity - expected).max() / np.abs(expected).max()
        assert err < tol

    def test_spectral_rk4_scheme_also_exact(self):
        s = SpectralNSSolver2D(32, 0.02, scheme="rk4")
        w0 = taylor_green(32)
        s.set_vorticity(w0)
        s.advance(0.5)
        expected = w0 * np.exp(-2 * 0.02 * 0.5)
        assert np.abs(s.vorticity - expected).max() < 1e-8


class TestDecayingTurbulence:
    @pytest.mark.parametrize("cls", SOLVERS)
    def test_energy_and_enstrophy_decay(self, cls):
        s = cls(32, 5e-3)
        s.set_vorticity(band_limited_vorticity(32, RNG, k_peak=4.0))
        d0 = s.diagnostics()
        s.advance(1.0)
        d1 = s.diagnostics()
        assert d1["enstrophy"] < d0["enstrophy"]
        assert d1["kinetic_energy"] < d0["kinetic_energy"] + 1e-12

    @pytest.mark.parametrize("cls", SOLVERS)
    def test_vorticity_mean_conserved(self, cls):
        s = cls(32, 5e-3)
        s.set_vorticity(band_limited_vorticity(32, RNG))
        s.advance(0.5)
        assert abs(s.vorticity.mean()) < 1e-12

    def test_solver_agreement_short_time(self):
        """Spectral and FD solvers agree on a resolved flow over a short
        horizon — the cross-solver consistency the hybrid scheme needs."""
        omega = band_limited_vorticity(48, np.random.default_rng(5), k_peak=3.0)
        results = []
        for cls in SOLVERS:
            s = cls(48, 1e-2)
            s.set_vorticity(omega)
            s.advance(0.2)
            results.append(s.vorticity)
        rel = np.linalg.norm(results[0] - results[1]) / np.linalg.norm(results[0])
        assert rel < 5e-2  # second-order FD vs spectral: few-percent agreement


class TestInterface:
    def test_advance_lands_exactly(self):
        s = SpectralNSSolver2D(16, 0.1, dt=0.03)
        s.set_vorticity(taylor_green(16))
        s.advance(0.1)
        assert s.time == pytest.approx(0.1)

    def test_run_returns_snapshots(self):
        s = SpectralNSSolver2D(16, 0.1)
        s.set_vorticity(taylor_green(16))
        times, snaps = s.run(0.2, n_snapshots=5)
        assert times.shape == (5,)
        assert snaps.shape == (5, 16, 16)
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.2)

    def test_run_single_snapshot(self):
        s = SpectralNSSolver2D(16, 0.1)
        s.set_vorticity(taylor_green(16))
        times, snaps = s.run(1.0, n_snapshots=1)
        assert snaps.shape == (1, 16, 16)
        assert s.time == 0.0  # no integration happened

    def test_negative_duration_rejected(self):
        s = SpectralNSSolver2D(16, 0.1)
        with pytest.raises(ValueError):
            s.advance(-1.0)

    def test_set_velocity_projects_divergence(self):
        s = SpectralNSSolver2D(16, 0.1)
        u = RNG.standard_normal((2, 16, 16))  # divergent
        s.set_velocity(u)
        from repro.ns import divergence

        assert np.abs(divergence(s.velocity)).max() < 1e-10

    def test_reset_time_flag(self):
        s = SpectralNSSolver2D(16, 0.1)
        s.set_vorticity(taylor_green(16))
        s.advance(0.1)
        s.set_vorticity(taylor_green(16), reset_time=True)
        assert s.time == 0.0

    def test_callback_invoked(self):
        s = SpectralNSSolver2D(16, 0.1, dt=0.05)
        s.set_vorticity(taylor_green(16))
        calls = []
        s.advance(0.2, callback=lambda sol: calls.append(sol.time))
        assert len(calls) == 4

    def test_diagnostics_keys(self):
        s = FDNSSolver2D(16, 0.1)
        s.set_vorticity(taylor_green(16))
        d = s.diagnostics()
        assert {"time", "kinetic_energy", "enstrophy", "rms_velocity", "max_divergence"} <= set(d)


class TestFDStencils:
    def test_laplacian_of_cosine(self):
        n = 64
        h = 2 * np.pi / n
        x = np.arange(n) * h
        f = np.cos(x)[:, None] * np.ones((1, n))
        lap = _laplacian(f, h)
        assert np.allclose(lap, -f, atol=1e-3)

    def test_arakawa_antisymmetry(self):
        p = RNG.standard_normal((16, 16))
        w = RNG.standard_normal((16, 16))
        assert np.allclose(_arakawa_jacobian(p, w, 0.1), -_arakawa_jacobian(w, p, 0.1))

    def test_arakawa_integral_vanishes(self):
        """∮ J(p, w) = 0 — the conservation property of the scheme."""
        p = RNG.standard_normal((16, 16))
        w = RNG.standard_normal((16, 16))
        assert abs(_arakawa_jacobian(p, w, 0.1).sum()) < 1e-9

    def test_arakawa_energy_conservation(self):
        """∮ p·J(p, w) = 0 (discrete energy conservation)."""
        p = RNG.standard_normal((16, 16))
        w = RNG.standard_normal((16, 16))
        assert abs((p * _arakawa_jacobian(p, w, 0.1)).sum()) < 1e-9

    def test_arakawa_enstrophy_conservation(self):
        """∮ w·J(p, w) = 0 (discrete enstrophy conservation)."""
        p = RNG.standard_normal((16, 16))
        w = RNG.standard_normal((16, 16))
        assert abs((w * _arakawa_jacobian(p, w, 0.1)).sum()) < 1e-9

    def test_arakawa_matches_analytic_jacobian(self):
        n = 128
        h = 2 * np.pi / n
        x = np.arange(n) * h
        X, Y = np.meshgrid(x, x, indexing="ij")
        p = np.sin(X) * np.cos(Y)
        w = np.cos(2 * X)
        # J = p_x w_y − p_y w_x = −p_y w_x = (sin X sin Y)(−2 sin 2X)
        exact = -(-np.sin(X) * np.sin(Y)) * (-2 * np.sin(2 * X))
        numeric = _arakawa_jacobian(p, w, h)
        assert np.abs(numeric - exact).max() < 5e-3

    @pytest.mark.parametrize("n", [16, 33])
    def test_padded_stencils_match_roll_reference(self, n):
        """The wrap-padded slices are the np.roll stencils, bit for bit."""
        def shift(f, di, dj):  # f[i + di, j + dj], periodic
            return np.roll(f, (-di, -dj), axis=(0, 1))

        def jacobian(p, w, h):
            pE, pW, pN, pS = shift(p, 1, 0), shift(p, -1, 0), shift(p, 0, 1), shift(p, 0, -1)
            pNE, pNW, pSE, pSW = shift(p, 1, 1), shift(p, -1, 1), shift(p, 1, -1), shift(p, -1, -1)
            wE, wW, wN, wS = shift(w, 1, 0), shift(w, -1, 0), shift(w, 0, 1), shift(w, 0, -1)
            wNE, wNW, wSE, wSW = shift(w, 1, 1), shift(w, -1, 1), shift(w, 1, -1), shift(w, -1, -1)
            j1 = (pE - pW) * (wN - wS) - (pN - pS) * (wE - wW)
            j2 = pE * (wNE - wSE) - pW * (wNW - wSW) - pN * (wNE - wNW) + pS * (wSE - wSW)
            j3 = wN * (pNE - pNW) - wS * (pSE - pSW) - wE * (pNE - pSE) + wW * (pNW - pSW)
            return (j1 + j2 + j3) / (12.0 * h * h)

        h = 2 * np.pi / n
        p, w = RNG.standard_normal((2, n, n))
        assert np.array_equal(_arakawa_jacobian(p, w, h), jacobian(p, w, h))
        lap = (shift(w, 1, 0) + shift(w, -1, 0) + shift(w, 0, 1) + shift(w, 0, -1)
               - 4.0 * w) / (h * h)
        assert np.array_equal(_laplacian(w, h), lap)
        solver = FDNSSolver2D(n, 0.01)
        solver.set_vorticity(w)
        psi = solver.streamfunction()
        ux = (shift(psi, 0, 1) - shift(psi, 0, -1)) / (2.0 * h)
        uy = -(shift(psi, 1, 0) - shift(psi, -1, 0)) / (2.0 * h)
        assert np.array_equal(solver.velocity, np.stack([ux, uy]))


class TestDealiasing:
    def test_mask_removes_high_modes(self):
        s = SpectralNSSolver2D(32, 1e-3, dealias=True)
        assert s._mask[16, 0] == 0.0  # Nyquist region masked
        assert s._mask[0, 0] == 1.0

    def test_no_dealias_flag(self):
        s = SpectralNSSolver2D(32, 1e-3, dealias=False)
        s.set_vorticity(band_limited_vorticity(32, RNG))
        s.advance(0.1)  # still runs
        assert np.isfinite(s.vorticity).all()
