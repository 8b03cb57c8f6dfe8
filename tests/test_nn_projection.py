"""Differentiable solenoidal projection layer and divergence-free FNO."""

import numpy as np
import pytest

from repro.core import ChannelFNOConfig, build_model
from repro.data import band_limited_vorticity
from repro.nn import SolenoidalProjection2d
from repro.ns import divergence, velocity_from_vorticity
from repro.tensor import Tensor, no_grad
from repro.tensor.fft_ops import solenoidal_projection_2d

RNG = np.random.default_rng(221)


class TestProjectionOp:
    def test_output_divergence_free(self):
        x = Tensor(RNG.standard_normal((2, 4, 16, 16)))  # 2 snapshots × (ux, uy)
        y = solenoidal_projection_2d(x).numpy()
        for b in range(2):
            for s in range(2):
                assert np.abs(divergence(y[b, 2 * s : 2 * s + 2])).max() < 1e-10

    def test_idempotent(self):
        x = Tensor(RNG.standard_normal((1, 2, 16, 16)))
        y1 = solenoidal_projection_2d(x)
        y2 = solenoidal_projection_2d(y1)
        assert np.allclose(y1.numpy(), y2.numpy(), atol=1e-12)

    def test_preserves_solenoidal_input(self):
        omega = band_limited_vorticity(16, RNG)
        u = velocity_from_vorticity(omega)[None]
        y = solenoidal_projection_2d(Tensor(u)).numpy()
        assert np.allclose(y, u, atol=1e-10)

    def test_preserves_mean_flow(self):
        x = np.zeros((1, 2, 8, 8))
        x[0, 0] = 3.0  # uniform flow is divergence-free
        y = solenoidal_projection_2d(Tensor(x)).numpy()
        assert np.allclose(y, x, atol=1e-12)

    def test_odd_channels_rejected(self):
        with pytest.raises(ValueError):
            solenoidal_projection_2d(Tensor(np.zeros((1, 3, 8, 8))))

    def test_self_adjoint_gradient(self):
        """Backward pass equals the forward projection of the cotangent."""
        x = Tensor(RNG.standard_normal((1, 2, 8, 8)), requires_grad=True)
        g = RNG.standard_normal((1, 2, 8, 8))
        y = solenoidal_projection_2d(x)
        y.backward(g)
        expected = solenoidal_projection_2d(Tensor(g)).numpy()
        assert np.allclose(x.grad, expected, atol=1e-12)

    def test_gradcheck(self):
        x = Tensor(RNG.standard_normal((1, 2, 8, 8)), requires_grad=True)
        w = RNG.standard_normal((1, 2, 8, 8))
        (solenoidal_projection_2d(x) * w).sum().backward()
        flat = x.data.reshape(-1)
        eps = 1e-6
        for i in RNG.choice(flat.size, 6, replace=False):
            old = flat[i]
            flat[i] = old + eps
            fp = float((solenoidal_projection_2d(Tensor(x.data)).data * w).sum())
            flat[i] = old - eps
            fm = float((solenoidal_projection_2d(Tensor(x.data)).data * w).sum())
            flat[i] = old
            assert x.grad.reshape(-1)[i] == pytest.approx((fp - fm) / (2 * eps), abs=1e-8)

    def test_module_wrapper(self):
        layer = SolenoidalProjection2d()
        x = Tensor(RNG.standard_normal((1, 2, 8, 8)))
        assert np.allclose(layer(x).numpy(), solenoidal_projection_2d(x).numpy())
        assert layer.num_parameters() == 0


class TestDivergenceFreeFNO:
    def test_outputs_divergence_free(self):
        cfg = ChannelFNOConfig(n_in=2, n_out=2, n_fields=2, modes1=4, modes2=4,
                               width=8, n_layers=2, divergence_free=True)
        model = build_model(cfg, rng=np.random.default_rng(0))
        x = RNG.standard_normal((2, 4, 16, 16))
        with no_grad():
            out = model(Tensor(x)).numpy()
        for b in range(2):
            for s in range(2):
                assert np.abs(divergence(out[b, 2 * s : 2 * s + 2])).max() < 1e-10

    def test_trains_end_to_end(self):
        from repro.core import Trainer, TrainingConfig
        from repro.nn import LpLoss

        cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=2, modes1=3, modes2=3,
                               width=6, n_layers=2, divergence_free=True)
        model = build_model(cfg, rng=np.random.default_rng(1))
        # Targets: solenoidal fields (so the projection does not fight the data).
        targets = np.stack([
            velocity_from_vorticity(band_limited_vorticity(8, np.random.default_rng(s)))
            for s in range(8)
        ])
        inputs = np.roll(targets, 1, axis=0)
        trainer = Trainer(model, TrainingConfig(epochs=8, batch_size=4, learning_rate=3e-3))
        history = trainer.fit(inputs, targets)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_odd_out_channels_rejected(self):
        from repro.nn import FNO

        with pytest.raises(ValueError):
            FNO(2, 3, (3, 3), width=4, n_layers=1, divergence_free=True)

    def test_zoo_roundtrip_with_flag(self, tmp_path):
        from repro.core import load_model, save_model

        cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=2, modes1=3, modes2=3,
                               width=6, n_layers=1, divergence_free=True)
        model = build_model(cfg, rng=np.random.default_rng(2))
        save_model(tmp_path / "m.npz", model, cfg)
        loaded, loaded_cfg, _ = load_model(tmp_path / "m.npz")
        assert loaded_cfg.divergence_free
        x = RNG.standard_normal((1, 2, 8, 8))
        with no_grad():
            assert np.array_equal(model(Tensor(x)).numpy(), loaded(Tensor(x)).numpy())
