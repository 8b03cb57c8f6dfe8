"""3-D Navier–Stokes substrate (the paper's proposed extension)."""

import numpy as np
import pytest

from repro.ns3d import (
    SpectralNSSolver3D,
    divergence3d,
    enstrophy3d,
    kinetic_energy3d,
    project_solenoidal,
    random_solenoidal_velocity,
    vorticity3d,
)

RNG = np.random.default_rng(211)
N = 12


class TestFields3D:
    def test_projection_removes_divergence(self):
        u = RNG.standard_normal((3, N, N, N))
        p = project_solenoidal(u)
        assert np.abs(divergence3d(p)).max() < 1e-10

    def test_projection_idempotent(self):
        u = RNG.standard_normal((3, N, N, N))
        p1 = project_solenoidal(u)
        p2 = project_solenoidal(p1)
        assert np.allclose(p1, p2, atol=1e-12)

    def test_vorticity_of_shear(self):
        # u = (sin z, 0, 0) → ω = (0, cos z, 0).
        z = np.arange(N) * 2 * np.pi / N
        u = np.zeros((3, N, N, N))
        u[0] = np.sin(z)[None, None, :]
        w = vorticity3d(u)
        assert np.allclose(w[1], np.cos(z)[None, None, :], atol=1e-12)
        assert np.abs(w[0]).max() < 1e-12
        assert np.abs(w[2]).max() < 1e-12

    def test_vorticity_divergence_free(self):
        u = random_solenoidal_velocity(N, RNG)
        assert np.abs(divergence3d(vorticity3d(u))).max() < 1e-10

    def test_kinetic_energy(self):
        u = np.zeros((3, N, N, N))
        u[1] = 2.0
        assert kinetic_energy3d(u) == pytest.approx(2.0)

    def test_random_velocity_properties(self):
        u = random_solenoidal_velocity(N, np.random.default_rng(3), u0=1.5)
        assert np.abs(divergence3d(u)).max() < 1e-10
        assert np.sqrt(np.mean((u * u).sum(axis=0))) == pytest.approx(1.5, rel=1e-10)
        assert np.abs(u.mean(axis=(1, 2, 3))).max() < 1e-12

    def test_random_velocity_reproducible(self):
        a = random_solenoidal_velocity(N, np.random.default_rng(7))
        b = random_solenoidal_velocity(N, np.random.default_rng(7))
        assert np.array_equal(a, b)


class TestSolver3D:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralNSSolver3D(2, 0.1)
        with pytest.raises(ValueError):
            SpectralNSSolver3D(8, -0.1)
        s = SpectralNSSolver3D(8, 0.1)
        with pytest.raises(ValueError):
            s.set_velocity(np.zeros((3, 4, 4, 4)))

    def test_exact_shear_decay(self):
        """u = (sin z, 0, 0) is an exact solution decaying as e^{−νt}."""
        n, nu = 12, 0.05
        z = np.arange(n) * 2 * np.pi / n
        u0 = np.zeros((3, n, n, n))
        u0[0] = np.sin(z)[None, None, :]
        s = SpectralNSSolver3D(n, nu)
        s.set_velocity(u0)
        s.advance(1.0)
        assert np.abs(s.velocity - u0 * np.exp(-nu)).max() < 1e-12

    def test_divergence_free_throughout(self):
        s = SpectralNSSolver3D(N, 0.02)
        s.set_velocity(random_solenoidal_velocity(N, np.random.default_rng(1)))
        s.advance(0.5)
        assert np.abs(divergence3d(s.velocity)).max() < 1e-10

    def test_energy_decays(self):
        s = SpectralNSSolver3D(N, 0.02)
        s.set_velocity(random_solenoidal_velocity(N, np.random.default_rng(2)))
        e0 = kinetic_energy3d(s.velocity)
        s.advance(1.0)
        assert kinetic_energy3d(s.velocity) < e0

    def test_set_velocity_projects(self):
        s = SpectralNSSolver3D(N, 0.02)
        s.set_velocity(RNG.standard_normal((3, N, N, N)))
        assert np.abs(divergence3d(s.velocity)).max() < 1e-10

    def test_advance_time_bookkeeping(self):
        s = SpectralNSSolver3D(N, 0.05, dt=0.01)
        s.set_velocity(random_solenoidal_velocity(N, np.random.default_rng(3), u0=0.3))
        s.advance(0.1)
        assert s.time == pytest.approx(0.1)

    def test_diagnostics_keys(self):
        s = SpectralNSSolver3D(N, 0.05)
        s.set_velocity(random_solenoidal_velocity(N, np.random.default_rng(4)))
        assert {"time", "kinetic_energy", "enstrophy", "max_divergence"} <= set(s.diagnostics())

    def test_vortex_stretching_grows_enstrophy_transiently(self):
        """3-D turbulence can amplify enstrophy (vortex stretching) before
        viscosity wins — absent in 2-D.  At modest Re, just verify the
        flow develops new scales: enstrophy/energy ratio grows."""
        s = SpectralNSSolver3D(16, 0.01)
        s.set_velocity(random_solenoidal_velocity(16, np.random.default_rng(5), k_peak=2.0))
        d0 = s.diagnostics()
        s.advance(1.0)
        d1 = s.diagnostics()
        ratio0 = d0["enstrophy"] / d0["kinetic_energy"]
        ratio1 = d1["enstrophy"] / d1["kinetic_energy"]
        assert ratio1 > ratio0


class TestSpatial3DModel:
    def test_builder_and_zoo_roundtrip(self, tmp_path):
        from repro.core import Spatial3DChannelsConfig, build_model, load_model, save_model
        from repro.tensor import Tensor, no_grad

        cfg = Spatial3DChannelsConfig(n_in=2, n_out=1, n_fields=3, modes1=2, modes2=2,
                                      modes3=2, width=4, n_layers=2)
        model = build_model(cfg, rng=np.random.default_rng(0))
        x = RNG.standard_normal((1, cfg.in_channels, 8, 8, 8))
        with no_grad():
            out = model(Tensor(x))
        assert out.shape == (1, cfg.out_channels, 8, 8, 8)

        save_model(tmp_path / "m.npz", model, cfg)
        loaded, loaded_cfg, _ = load_model(tmp_path / "m.npz")
        assert loaded_cfg == cfg
        with no_grad():
            assert np.array_equal(model(Tensor(x)).numpy(), loaded(Tensor(x)).numpy())

    def test_channel_pairs_3d(self):
        """make_channel_pairs handles 3-D spatial grids."""
        from repro.data import make_channel_pairs

        data = RNG.standard_normal((2, 6, 3, 4, 4, 4))  # (S, T, C, x, y, z)
        X, Y = make_channel_pairs(data, n_in=2, n_out=2)
        assert X.shape[1:] == (6, 4, 4, 4)
        assert Y.shape[1:] == (6, 4, 4, 4)
        assert np.array_equal(X[0, :3], data[0, 0])
