"""Burgers solver and the 1-D FNO (canonical 1-D operator benchmark)."""

import numpy as np
import pytest

from repro.nn import FNO, LpLoss, SpectralConv
from repro.ns import BurgersSolver1D, random_initial_condition_1d
from repro.tensor import Tensor
from repro.tensor.fft_ops import spectral_conv

RNG = np.random.default_rng(251)


class TestBurgersSolver:
    def test_validation(self):
        with pytest.raises(ValueError):
            BurgersSolver1D(2, 0.1)
        with pytest.raises(ValueError):
            BurgersSolver1D(32, -0.1)
        s = BurgersSolver1D(32, 0.1)
        with pytest.raises(ValueError):
            s.set_state(np.zeros(16))
        with pytest.raises(ValueError):
            s.advance(-1.0)

    def test_linear_limit_exact_decay(self):
        """At infinitesimal amplitude the equation is the heat equation."""
        n, nu = 64, 0.1
        x = np.arange(n) * 2 * np.pi / n
        u0 = 1e-6 * np.sin(3 * x)
        s = BurgersSolver1D(n, nu)
        s.set_state(u0)
        s.advance(0.5)
        expected = u0 * np.exp(-nu * 9 * 0.5)
        assert np.abs(s.u - expected).max() < 1e-6 * np.abs(u0).max() * 10

    def test_energy_decays(self):
        s = BurgersSolver1D(128, 0.02)
        s.set_state(random_initial_condition_1d(128, RNG))
        e0 = s.energy()
        s.advance(1.0)
        assert s.energy() < e0

    def test_momentum_conserved(self):
        """∫u dx is conserved by the conservative flux form."""
        s = BurgersSolver1D(128, 0.05)
        u0 = random_initial_condition_1d(128, RNG) + 0.5
        s.set_state(u0)
        s.advance(1.0)
        assert s.u.mean() == pytest.approx(u0.mean(), abs=1e-12)

    def test_shock_steepening_then_decay(self):
        """The max gradient grows (shock formation) before viscosity wins."""
        n, nu = 256, 5e-3
        x = np.arange(n) * 2 * np.pi / n
        s = BurgersSolver1D(n, nu)
        s.set_state(np.sin(x))
        g0 = np.abs(np.gradient(s.u)).max()
        s.advance(0.8)  # pre-shock time for sin IC is t* = 1
        g_mid = np.abs(np.gradient(s.u)).max()
        assert g_mid > 2.0 * g0

    def test_refinement_convergence(self):
        coarse = BurgersSolver1D(64, 0.05)
        fine = BurgersSolver1D(256, 0.05)
        x_c = np.arange(64) * 2 * np.pi / 64
        x_f = np.arange(256) * 2 * np.pi / 256
        coarse.set_state(np.sin(x_c))
        fine.set_state(np.sin(x_f))
        coarse.advance(0.5)
        fine.advance(0.5)
        err = np.abs(coarse.u - fine.u[::4]).max()
        assert err < 1e-4

    def test_random_ic_properties(self):
        u = random_initial_condition_1d(128, np.random.default_rng(1), u0=2.0)
        assert np.sqrt(np.mean(u * u)) == pytest.approx(2.0, rel=1e-10)
        assert abs(u.mean()) < 0.5  # zero-mean modes only
        assert np.array_equal(u, random_initial_condition_1d(128, np.random.default_rng(1), u0=2.0))


class TestSpectralConv1d:
    def test_shape(self):
        x = Tensor(RNG.standard_normal((2, 3, 32)))
        wr = Tensor(RNG.standard_normal((1, 3, 5, 4)))
        wi = Tensor(RNG.standard_normal((1, 3, 5, 4)))
        assert spectral_conv(x, wr, wi, (4,)).shape == (2, 5, 32)

    def test_gradcheck(self):
        x = Tensor(RNG.standard_normal((2, 2, 16)), requires_grad=True)
        wr = Tensor(0.1 * RNG.standard_normal((1, 2, 2, 3)), requires_grad=True)
        wi = Tensor(0.1 * RNG.standard_normal((1, 2, 2, 3)), requires_grad=True)
        out = spectral_conv(x, wr, wi, (3,))
        w = RNG.standard_normal(out.shape)
        (out * w).sum().backward()
        for t in (x, wr, wi):
            flat = t.data.reshape(-1)
            for i in RNG.choice(flat.size, 5, replace=False):
                old, eps = flat[i], 1e-6
                flat[i] = old + eps
                fp = float((spectral_conv(Tensor(x.data), Tensor(wr.data), Tensor(wi.data), (3,)).data * w).sum())
                flat[i] = old - eps
                fm = float((spectral_conv(Tensor(x.data), Tensor(wr.data), Tensor(wi.data), (3,)).data * w).sum())
                flat[i] = old
                assert t.grad.reshape(-1)[i] == pytest.approx((fp - fm) / (2 * eps), abs=1e-8)

    def test_translation_equivariance(self):
        wr = Tensor(RNG.standard_normal((1, 1, 1, 4)))
        wi = Tensor(RNG.standard_normal((1, 1, 1, 4)))
        x = RNG.standard_normal((1, 1, 32))
        f = lambda a: spectral_conv(Tensor(a), wr, wi, (4,)).data
        assert np.allclose(f(np.roll(x, 5, axis=-1)), np.roll(f(x), 5, axis=-1), atol=1e-12)

    def test_module_wrapper(self):
        layer = SpectralConv(2, 3, (4,), rng=RNG)
        assert layer.weight_real.shape == (1, 2, 3, 4)
        out = layer(Tensor(RNG.standard_normal((1, 2, 16))))
        assert out.shape == (1, 3, 16)

    def test_too_many_modes(self):
        x = Tensor(RNG.standard_normal((1, 1, 8)))
        wr = Tensor(RNG.standard_normal((1, 1, 1, 6)))
        wi = Tensor(RNG.standard_normal((1, 1, 1, 6)))
        with pytest.raises(ValueError):
            spectral_conv(x, wr, wi, (6,))


class TestFNO1d:
    def test_shapes_and_grid(self):
        m = FNO(1, 1, (6,), width=8, n_layers=2, rng=RNG)
        assert m(Tensor(RNG.standard_normal((2, 1, 32)))).shape == (2, 1, 32)
        assert m.lifting.in_channels == 2  # +1 grid channel

    def test_channel_mismatch(self):
        m = FNO(2, 1, (4,), width=6, n_layers=1, rng=RNG)
        with pytest.raises(ValueError):
            m(Tensor(RNG.standard_normal((1, 1, 16))))

    def test_learns_burgers_operator(self):
        """End-to-end: learn u(0) → u(T) for viscous Burgers, beating the
        persistence baseline — the canonical FNO benchmark in miniature."""
        from repro.core import Trainer, TrainingConfig

        n, nu, horizon = 64, 0.1, 0.5
        n_train, n_test = 24, 6
        rng = np.random.default_rng(9)
        X = np.empty((n_train + n_test, 1, n))
        Y = np.empty_like(X)
        for i in range(n_train + n_test):
            u0 = random_initial_condition_1d(n, rng, k_max=4)
            solver = BurgersSolver1D(n, nu)
            solver.set_state(u0)
            solver.advance(horizon)
            X[i, 0] = u0
            Y[i, 0] = solver.u
        model = FNO(1, 1, (12,), width=20, n_layers=3, rng=np.random.default_rng(0))
        trainer = Trainer(model, TrainingConfig(epochs=40, batch_size=8, learning_rate=3e-3,
                                                scheduler_step=15, scheduler_gamma=0.5, seed=0))
        trainer.fit(X[:n_train], Y[:n_train])

        from repro.tensor import no_grad

        with no_grad():
            pred = model(Tensor(X[n_train:])).numpy()
        err = np.linalg.norm(pred - Y[n_train:]) / np.linalg.norm(Y[n_train:])
        base = np.linalg.norm(X[n_train:] - Y[n_train:]) / np.linalg.norm(Y[n_train:])
        assert err < 0.5 * base
        assert err < 0.25
