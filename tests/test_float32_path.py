"""Single-precision end-to-end path.

Training in float32 halves memory and roughly doubles einsum/FFT
throughput on CPU; these tests pin down that the stack supports it
end to end without silent upcasts.
"""

import numpy as np
import pytest

from repro.checks import dtype_sanitizer
from repro.compile import runtime
from repro.core import ChannelFNOConfig, Trainer, TrainingConfig
from repro.core.models import build_model
from repro.core.rollout import apply_channels
from repro.data import FieldNormalizer, make_channel_pairs
from repro.nn import FNO, LpLoss
from repro.optim import Adam
from repro.tensor import Tensor, no_grad

RNG = np.random.default_rng(281)


def _f32_model():
    return FNO(2, 2, (4, 4), width=8, n_layers=2,
               dtype=np.float32, rng=np.random.default_rng(0))


class TestFloat32:
    def test_forward_stays_float32(self):
        model = _f32_model()
        x = RNG.standard_normal((2, 2, 16, 16)).astype(np.float32)
        with no_grad():
            out = model(Tensor(x))
        assert out.dtype == np.float32

    def test_parameters_are_float32(self):
        for _, p in _f32_model().named_parameters():
            assert p.dtype == np.float32

    def test_gradients_are_float32(self):
        model = _f32_model()
        x = Tensor(RNG.standard_normal((2, 2, 16, 16)).astype(np.float32))
        loss = LpLoss()(model(x), Tensor(RNG.standard_normal((2, 2, 16, 16)).astype(np.float32)))
        loss.backward()
        for _, p in model.named_parameters():
            assert p.grad is not None
            assert p.grad.dtype == np.float32

    def test_adam_training_step_preserves_dtype(self):
        model = _f32_model()
        opt = Adam(model.parameters(), lr=1e-3)
        x = Tensor(RNG.standard_normal((2, 2, 16, 16)).astype(np.float32))
        y = Tensor(RNG.standard_normal((2, 2, 16, 16)).astype(np.float32))
        for _ in range(2):
            model.zero_grad()
            LpLoss()(model(x), y).backward()
            opt.step()
        for _, p in model.named_parameters():
            assert p.dtype == np.float32

    def test_loss_decreases_in_float32(self):
        x32 = RNG.standard_normal((12, 2, 8, 8)).astype(np.float32)
        y32 = np.fft.irfft2(np.fft.rfft2(x32) * 0.5, s=(8, 8)).astype(np.float32)
        model = FNO(2, 2, (3, 3), width=6, n_layers=2,
                    dtype=np.float32, rng=np.random.default_rng(1))
        opt = Adam(model.parameters(), lr=3e-3)
        losses = []
        for _ in range(12):
            model.zero_grad()
            loss = LpLoss()(model(Tensor(x32)), Tensor(y32))
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < 0.8 * losses[0]

    def test_float32_agrees_with_float64(self):
        """Same weights cast down: forward passes agree to single precision."""
        cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=2, modes1=4, modes2=4,
                               width=8, n_layers=2)
        m64 = build_model(cfg, rng=np.random.default_rng(3), dtype=np.float64)
        m32 = build_model(cfg, rng=np.random.default_rng(3), dtype=np.float32)
        m32.load_state_dict({k: v.astype(np.float32) for k, v in m64.state_dict().items()})
        x = RNG.standard_normal((1, 2, 16, 16))
        with no_grad():
            y64 = m64(Tensor(x)).numpy()
            y32 = m32(Tensor(x.astype(np.float32))).numpy()
        assert np.allclose(y32, y64, atol=1e-4)


class TestFloat32Training:
    """Float32 is the builders' default (the paper trained with PyTorch's
    float32); ``Trainer`` feeds the model batches in its own dtype."""

    def test_loss_curve_tracks_float64(self, velocity_data):
        """The ``trained_channel_model`` recipe, 10 epochs in each dtype
        from the same seed: per-epoch train losses agree within 1e-4
        relative (measured: 2.8e-7)."""
        config = ChannelFNOConfig(n_in=5, n_out=2, n_fields=2, modes1=8, modes2=8,
                                  width=10, n_layers=3)
        X, Y = make_channel_pairs(velocity_data, n_in=config.n_in, n_out=config.n_out)
        normalizer = FieldNormalizer(n_fields=2).fit(X)
        x, y = normalizer.encode(X), normalizer.encode(Y)
        training = TrainingConfig(epochs=10, batch_size=8, learning_rate=3e-3,
                                  scheduler_step=15, scheduler_gamma=0.5, seed=5)
        curves = {}
        for dtype in (None, np.float64):
            kwargs = {} if dtype is None else {"dtype": dtype}
            model = build_model(config, rng=np.random.default_rng(5), **kwargs)
            curves[dtype] = Trainer(model, training).fit(x, y).train_loss
            assert next(model.parameters()).dtype == (dtype or np.float32)
        np.testing.assert_allclose(curves[None], curves[np.float64], rtol=1e-4)

    def test_apply_channels_runs_float32_model_in_float32(self):
        """A float64 window reaches a float32 model as float32, on the
        compiled path and the eager one."""
        x = RNG.standard_normal((1, 2, 16, 16))
        outs = []
        for compiled in (True, False):
            previous = runtime.enabled()
            runtime.set_enabled(compiled)
            try:
                with dtype_sanitizer(mode="raise"):
                    outs.append(apply_channels(_f32_model(), x))
            finally:
                runtime.set_enabled(previous)
        assert [o.dtype for o in outs] == [np.float32, np.float32]
        assert np.array_equal(outs[0], outs[1])

    def test_fit_on_float64_arrays_stays_float32(self, tmp_path):
        cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=2, modes1=3, modes2=3,
                               width=6, n_layers=2)
        trainer = Trainer(build_model(cfg, rng=np.random.default_rng(0)),
                          TrainingConfig(epochs=1, batch_size=4, seed=1))
        x = RNG.standard_normal((8, 2, 8, 8))
        y = RNG.standard_normal((8, 2, 8, 8))
        with dtype_sanitizer(mode="raise") as report:
            trainer.fit(x, y, x_val=x, y_val=y)
        assert report.ok
        for _, p in trainer.model.named_parameters():
            assert p.dtype == np.float32 and p.grad.dtype == np.float32
        for moment in trainer.optimizer._m + trainer.optimizer._v:
            assert moment.dtype == np.float32
        path = tmp_path / "ckpt.npz"
        trainer.save_checkpoint(path)
        with np.load(path) as data:
            stored = {k: data[k].dtype for k in data.files if k != "header"}
        assert stored and set(stored.values()) == {np.dtype(np.float32)}
