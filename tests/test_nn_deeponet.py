"""DeepONet baseline."""

import numpy as np
import pytest

from repro.core import Trainer, TrainingConfig
from repro.nn import DeepONet2d, LpLoss
from repro.tensor import Tensor, no_grad

RNG = np.random.default_rng(261)


def _model(**kwargs):
    defaults = dict(in_channels=2, out_channels=2, grid_size=16, n_basis=16,
                    branch_hidden=32, trunk_hidden=32, rng=np.random.default_rng(0))
    defaults.update(kwargs)
    return DeepONet2d(**defaults)


class TestForward:
    def test_output_shape(self):
        m = _model()
        assert m(Tensor(RNG.standard_normal((3, 2, 16, 16)))).shape == (3, 2, 16, 16)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            _model()(Tensor(RNG.standard_normal((1, 3, 16, 16))))

    def test_resolution_locked_branch(self):
        """Unlike the FNO, the DeepONet branch cannot accept other grids —
        the limitation that motivates neural operators."""
        with pytest.raises(ValueError, match="locked"):
            _model()(Tensor(RNG.standard_normal((1, 2, 32, 32))))

    def test_accepts_ndarray(self):
        assert _model()(RNG.standard_normal((1, 2, 16, 16))).shape == (1, 2, 16, 16)

    def test_gradients_reach_all_parameters(self):
        m = _model()
        out = m(Tensor(RNG.standard_normal((2, 2, 16, 16))))
        (out * out).sum().backward()
        for name, p in m.named_parameters():
            assert p.grad is not None, name

    def test_periodic_trunk_embedding(self):
        """Query features at x and x+2π coincide (periodicity built in)."""
        m = _model()
        feats = m._query_features(16)
        assert feats.shape == (256, 4)
        assert np.all(np.abs(feats) <= 1.0 + 1e-12)


class TestLearning:
    def test_learns_linear_operator(self):
        """DeepONet can fit a fixed linear map on a fixed grid."""
        n = 8
        X = RNG.standard_normal((24, 1, n, n))
        spec = np.fft.rfft2(X)
        mask = np.zeros((n, n // 2 + 1))
        mask[:2, :2] = 1.0
        Y = np.fft.irfft2(spec * mask, s=(n, n))
        m = DeepONet2d(1, 1, grid_size=n, n_basis=24, branch_hidden=64,
                       trunk_hidden=64, rng=np.random.default_rng(1))
        trainer = Trainer(m, TrainingConfig(epochs=60, batch_size=8, learning_rate=2e-3,
                                            scheduler_step=25, scheduler_gamma=0.5, seed=1))
        hist = trainer.fit(X, Y)
        assert hist.train_loss[-1] < 0.35 * hist.train_loss[0]

    def test_fno_outperforms_deeponet_at_matched_budget(self):
        """On a translation-equivariant task, the FNO's inductive bias wins
        at a matched parameter budget — the Sec.-II comparison in miniature."""
        from repro.core import ChannelFNOConfig, build_model

        n = 16
        X = RNG.standard_normal((32, 1, n, n))
        Y = np.fft.irfft2(
            np.fft.rfft2(X) * np.exp(-0.05 * np.add.outer(
                np.fft.fftfreq(n, 1 / n) ** 2, np.fft.rfftfreq(n, 1 / n) ** 2)),
            s=(n, n),
        )
        Xt, Yt = X[24:], Y[24:]
        X, Y = X[:24], Y[:24]

        fno = build_model(
            ChannelFNOConfig(n_in=1, n_out=1, n_fields=1, modes1=6, modes2=6,
                             width=8, n_layers=2),
            rng=np.random.default_rng(2),
        )
        don = DeepONet2d(1, 1, grid_size=n, n_basis=16, branch_hidden=32,
                         trunk_hidden=32, rng=np.random.default_rng(2))
        errs = {}
        for name, model in (("fno", fno), ("deeponet", don)):
            trainer = Trainer(model, TrainingConfig(epochs=25, batch_size=8,
                                                    learning_rate=3e-3,
                                                    scheduler_step=10, seed=2))
            trainer.fit(X, Y)
            with no_grad():
                pred = model(Tensor(Xt)).numpy()
            errs[name] = float(np.linalg.norm(pred - Yt) / np.linalg.norm(Yt))
        assert errs["fno"] < errs["deeponet"]
