"""Trainer: protocol wiring, history, loss factory."""

import numpy as np
import pytest

from repro.core import ChannelFNOConfig, Trainer, TrainingConfig, build_model, make_loss
from repro.nn import DivergenceLoss, H1Loss, LpLoss, MSELoss

RNG = np.random.default_rng(161)


def _toy_problem(n_examples=16, n=8):
    """Target = band-limited linear operator, exactly representable by a
    modes-3 spectral layer (so training can drive the loss near zero)."""
    X = RNG.standard_normal((n_examples, 2, n, n))
    spec = np.fft.rfft2(X)
    mask = np.zeros((n, n // 2 + 1))
    mask[:3, :3] = 1.0
    mask[-2:, :3] = 1.0
    Y = np.fft.irfft2(spec * mask * 0.5, s=(n, n))
    return X, Y


def _small_model(seed=0):
    cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=2, modes1=3, modes2=3, width=8, n_layers=2)
    return build_model(cfg, rng=np.random.default_rng(seed))


class TestMakeLoss:
    def test_factory(self):
        assert isinstance(make_loss("l2"), LpLoss)
        assert isinstance(make_loss("mse"), MSELoss)
        assert isinstance(make_loss("h1"), H1Loss)
        assert isinstance(make_loss("divergence"), DivergenceLoss)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_loss("huber")


class TestTrainer:
    def test_loss_decreases(self):
        X, Y = _toy_problem()
        model = _small_model()
        trainer = Trainer(model, TrainingConfig(epochs=15, batch_size=8, learning_rate=3e-3))
        hist = trainer.fit(X, Y)
        assert hist.train_loss[-1] < 0.6 * hist.train_loss[0]

    def test_history_lengths(self):
        X, Y = _toy_problem(8)
        trainer = Trainer(_small_model(), TrainingConfig(epochs=4, batch_size=4))
        hist = trainer.fit(X, Y, X, Y)
        assert len(hist.train_loss) == 4
        assert len(hist.val_loss) == 4
        assert len(hist.learning_rate) == 4
        assert len(hist.epoch_seconds) == 4
        assert hist.total_seconds > 0
        assert hist.best_val_loss == min(hist.val_loss)

    def test_no_validation_history_empty(self):
        X, Y = _toy_problem(8)
        trainer = Trainer(_small_model(), TrainingConfig(epochs=2, batch_size=4))
        hist = trainer.fit(X, Y)
        assert hist.val_loss == []
        assert np.isnan(hist.best_val_loss)

    def test_scheduler_applied(self):
        X, Y = _toy_problem(8)
        cfg = TrainingConfig(epochs=6, batch_size=8, learning_rate=1e-3,
                             scheduler_step=2, scheduler_gamma=0.5)
        trainer = Trainer(_small_model(), cfg)
        hist = trainer.fit(X, Y)
        assert hist.learning_rate[0] == pytest.approx(1e-3)
        assert hist.learning_rate[2] == pytest.approx(0.5e-3)
        assert hist.learning_rate[5] == pytest.approx(0.125e-3)

    def test_evaluate_no_grad_side_effects(self):
        X, Y = _toy_problem(8)
        model = _small_model()
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=4))
        before = {k: v.copy() for k, v in model.state_dict().items()}
        trainer.evaluate(X, Y)
        for k, v in model.state_dict().items():
            assert np.array_equal(v, before[k])

    def test_training_reproducible_with_seed(self):
        X, Y = _toy_problem(8)

        def run(seed):
            model = _small_model(seed=1)
            trainer = Trainer(model, TrainingConfig(epochs=3, batch_size=4, seed=seed))
            trainer.fit(X, Y)
            return model.state_dict()

        s1, s2 = run(7), run(7)
        for k in s1:
            assert np.array_equal(s1[k], s2[k])

    def test_custom_loss_override(self):
        X, Y = _toy_problem(8)
        trainer = Trainer(_small_model(), TrainingConfig(epochs=1, batch_size=4), loss=MSELoss())
        assert isinstance(trainer.loss, MSELoss)
        trainer.fit(X, Y)

    def test_history_as_dict(self):
        X, Y = _toy_problem(8)
        trainer = Trainer(_small_model(), TrainingConfig(epochs=2, batch_size=4))
        hist = trainer.fit(X, Y)
        d = hist.as_dict()
        assert set(d) == {"train_loss", "val_loss", "learning_rate", "epoch_seconds"}
