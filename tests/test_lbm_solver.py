"""LBM solver: conservation, Taylor–Green decay, unit bookkeeping."""

import numpy as np
import pytest

from repro.lbm import CS2, LBMSolver2D, UnitSystem
from repro.ns import velocity_from_vorticity, vorticity_from_velocity

RNG = np.random.default_rng(71)


def taylor_green_velocity(n, units):
    x = np.arange(n) * 2 * np.pi / n
    X, Y = np.meshgrid(x, x, indexing="ij")
    w0 = 2 * np.cos(X) * np.cos(Y)
    return w0, units.to_lattice_velocity(velocity_from_vorticity(w0))


class TestConstruction:
    def test_tau_bound(self):
        with pytest.raises(ValueError):
            LBMSolver2D(8, tau=0.5)

    def test_bad_collision(self):
        with pytest.raises(ValueError):
            LBMSolver2D(8, tau=0.8, collision="cumulant")

    def test_viscosity_relation(self):
        s = LBMSolver2D(8, tau=0.8)
        assert s.viscosity == pytest.approx(CS2 * 0.3)

    def test_from_units(self):
        units = UnitSystem(n=16, reynolds=100)
        s = LBMSolver2D.from_units(units)
        assert s.n == 16
        assert s.tau == pytest.approx(units.tau)


class TestInitialization:
    def test_equilibrium_init_macroscopics(self):
        s = LBMSolver2D(16, tau=0.8)
        u = 0.03 * RNG.standard_normal((2, 16, 16))
        s.initialize(u)
        rho, u2 = s.macroscopics()
        assert np.allclose(rho, 1.0, atol=1e-12)
        assert np.allclose(u2, u, atol=1e-12)

    def test_shape_check(self):
        s = LBMSolver2D(16, tau=0.8)
        with pytest.raises(ValueError):
            s.initialize(np.zeros((2, 8, 8)))

    def test_custom_density(self):
        s = LBMSolver2D(8, tau=0.8)
        rho = 1.0 + 0.01 * RNG.standard_normal((8, 8))
        s.initialize(np.zeros((2, 8, 8)), rho=rho)
        assert np.allclose(s.density, rho)


class TestConservation:
    @pytest.mark.parametrize("collision", ["bgk", "entropic", "mrt"])
    def test_mass_momentum_conserved(self, collision):
        units = UnitSystem(n=16, reynolds=100)
        s = LBMSolver2D.from_units(units, collision=collision)
        u = 0.03 * RNG.standard_normal((2, 16, 16))
        u -= u.mean(axis=(1, 2), keepdims=True)  # zero net momentum
        s.initialize(u)
        m0, p0 = s.mass(), s.momentum()
        s.step(50)
        assert s.mass() == pytest.approx(m0, rel=1e-12)
        assert np.allclose(s.momentum(), p0, atol=1e-9)

    def test_steps_counted(self):
        s = LBMSolver2D(8, tau=0.8)
        s.initialize(np.zeros((2, 8, 8)))
        s.step(7)
        assert s.steps_taken == 7


class TestTaylorGreen:
    @pytest.mark.parametrize("collision", ["bgk", "entropic"])
    def test_viscous_decay_rate(self, collision):
        n = 32
        units = UnitSystem(n=n, reynolds=100, u0_lattice=0.03)
        s = LBMSolver2D.from_units(units, collision=collision)
        w0, u_lat = taylor_green_velocity(n, units)
        s.initialize(u_lat)
        steps = units.steps_for_time(0.3)
        s.step(steps)
        t_phys = steps * units.time_scale
        expected = w0 * np.exp(-2.0 * units.viscosity_physical * t_phys)
        measured = vorticity_from_velocity(units.to_physical_velocity(s.velocity))
        err = np.abs(measured - expected).max() / np.abs(expected).max()
        assert err < 0.02  # O(Ma²) compressibility error budget

    def test_entropic_alpha_near_two_resolved(self):
        n = 32
        units = UnitSystem(n=n, reynolds=100, u0_lattice=0.03)
        s = LBMSolver2D.from_units(units, collision="entropic")
        _, u_lat = taylor_green_velocity(n, units)
        s.initialize(u_lat)
        s.step(20)
        assert np.abs(s.last_alpha - 2.0).max() < 0.05


class TestStability:
    def test_entropic_survives_underresolved_flow(self):
        """At a relaxation time very close to 1/2 (high Re on a small
        grid) the entropic stabiliser must keep populations finite —
        the regime motivating the paper's choice of solver."""
        from repro.data import band_limited_vorticity

        n = 32
        units = UnitSystem(n=n, reynolds=20000, u0_lattice=0.08)
        s = LBMSolver2D.from_units(units, collision="entropic")
        omega = band_limited_vorticity(n, RNG, k_peak=8.0)
        s.initialize(units.to_lattice_velocity(velocity_from_vorticity(omega)))
        s.step(300)
        assert np.isfinite(s.f).all()
        assert np.all(s.density > 0)
