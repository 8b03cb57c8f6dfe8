"""Trainer checkpoint/resume."""

import numpy as np
import pytest

from repro.core import ChannelFNOConfig, Trainer, TrainingConfig, build_model

RNG = np.random.default_rng(241)


def _problem(n_examples=12, n=8):
    X = RNG.standard_normal((n_examples, 2, n, n))
    spec = np.fft.rfft2(X)
    mask = np.zeros((n, n // 2 + 1))
    mask[:3, :3] = 1.0
    Y = np.fft.irfft2(spec * mask * 0.5, s=(n, n))
    return X, Y


def _trainer(epochs, seed=1):
    cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=2, modes1=3, modes2=3, width=6, n_layers=2)
    model = build_model(cfg, rng=np.random.default_rng(0))
    return Trainer(model, TrainingConfig(epochs=epochs, batch_size=4, learning_rate=3e-3,
                                         scheduler_step=3, scheduler_gamma=0.5, seed=seed))


class TestCheckpoint:
    def test_roundtrip_state(self, tmp_path):
        X, Y = _problem()
        trainer = _trainer(epochs=4)
        trainer.fit(X, Y)
        path = tmp_path / "ckpt.npz"
        trainer.save_checkpoint(path)

        fresh = _trainer(epochs=4)
        fresh.load_checkpoint(path)
        assert fresh.epochs_completed == 4
        assert fresh.scheduler.epoch == trainer.scheduler.epoch
        assert fresh.optimizer.lr == pytest.approx(trainer.optimizer.lr)
        for (na, pa), (nb, pb) in zip(
            trainer.model.named_parameters(), fresh.model.named_parameters()
        ):
            assert na == nb
            assert np.array_equal(pa.data, pb.data)
        assert np.allclose(fresh.optimizer._m[0], trainer.optimizer._m[0])

    def test_resume_matches_uninterrupted(self, tmp_path):
        """6 epochs straight == 3 epochs + checkpoint + 3 resumed epochs."""
        X, Y = _problem()

        straight = _trainer(epochs=6)
        straight.fit(X, Y)

        first = _trainer(epochs=3)
        first.fit(X, Y)
        path = tmp_path / "ckpt.npz"
        first.save_checkpoint(path)

        resumed = _trainer(epochs=6)
        resumed.load_checkpoint(path)
        resumed.fit(X, Y)

        assert resumed.epochs_completed == 6
        for (_, pa), (_, pb) in zip(
            straight.model.named_parameters(), resumed.model.named_parameters()
        ):
            assert np.allclose(pa.data, pb.data, atol=1e-12)
        assert np.allclose(straight.history.train_loss[3:], resumed.history.train_loss[3:], atol=1e-12)

    def test_resume_is_noop_when_complete(self, tmp_path):
        X, Y = _problem()
        trainer = _trainer(epochs=2)
        trainer.fit(X, Y)
        path = tmp_path / "ckpt.npz"
        trainer.save_checkpoint(path)
        before = {k: v.copy() for k, v in trainer.model.state_dict().items()}
        trainer.fit(X, Y)  # all epochs already done
        for k, v in trainer.model.state_dict().items():
            assert np.array_equal(v, before[k])

    def test_periodic_checkpointing(self, tmp_path):
        X, Y = _problem()
        trainer = _trainer(epochs=5)
        path = tmp_path / "auto.npz"
        trainer.fit(X, Y, checkpoint_path=path, checkpoint_every=2)
        assert path.exists()
        fresh = _trainer(epochs=5)
        fresh.load_checkpoint(path)
        assert fresh.epochs_completed == 5  # final checkpoint covers the last epoch

    def test_epoch_template_writes_per_epoch_files(self, tmp_path):
        X, Y = _problem()
        trainer = _trainer(epochs=3)
        trainer.fit(X, Y, checkpoint_path=tmp_path / "ckpt_{epoch:05d}.npz",
                    checkpoint_every=1)
        names = sorted(p.name for p in tmp_path.glob("ckpt_*.npz"))
        assert names == ["ckpt_00001.npz", "ckpt_00002.npz", "ckpt_00003.npz"]
        # Every checkpoint carries its integrity manifest sidecar.
        assert all((tmp_path / (n + ".manifest.json")).exists() for n in names)

    def test_config_hash_mismatch_is_rejected_before_mutation(self, tmp_path):
        from repro.utils.artifacts import CheckpointError

        X, Y = _problem()
        trainer = _trainer(epochs=2)
        trainer.fit(X, Y)
        path = tmp_path / "ckpt.npz"
        trainer.save_checkpoint(path)

        cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=2, modes1=3, modes2=3,
                               width=6, n_layers=2)
        other = Trainer(
            build_model(cfg, rng=np.random.default_rng(0)),
            TrainingConfig(epochs=2, batch_size=4, learning_rate=1e-4, seed=1),
        )  # not the optimisation config that wrote the checkpoint
        with pytest.raises(CheckpointError, match="config hash"):
            other.load_checkpoint(path)
        # The rejection happened before any state was applied.
        assert other.epochs_completed == 0 and other.history.train_loss == []

    def test_dtype_only_mismatch_names_both_dtypes(self, tmp_path):
        """A float64 checkpoint resumed into the float32 default model is
        reported as a dtype mismatch, before any state is applied."""
        from repro.utils.artifacts import CheckpointError

        X, Y = _problem()
        cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=2, modes1=3, modes2=3,
                               width=6, n_layers=2)
        training = TrainingConfig(epochs=1, batch_size=4, seed=1)
        writer = Trainer(build_model(cfg, rng=np.random.default_rng(0),
                                              dtype=np.float64), training)
        writer.fit(X, Y)
        path = tmp_path / "ckpt.npz"
        writer.save_checkpoint(path)

        reader = Trainer(build_model(cfg, rng=np.random.default_rng(0)), training)
        before = {k: v.copy() for k, v in reader.model.state_dict().items()}
        with pytest.raises(CheckpointError, match="float64 but this trainer's model is float32"):
            reader.load_checkpoint(path)
        assert reader.epochs_completed == 0
        for k, v in reader.model.state_dict().items():
            assert np.array_equal(v, before[k]) and v.dtype == np.float32

    def test_config_hash_ignores_epochs(self):
        a, b = _trainer(epochs=2), _trainer(epochs=50)
        assert a.config_hash() == b.config_hash()
