"""Model checkpointing (save/load with config + normalizer)."""

import numpy as np
import pytest

from repro.core import (
    ChannelFNOConfig,
    CheckpointError,
    SpaceTimeFNOConfig,
    build_model,
    checkpoint_fingerprint,
    inspect_checkpoint,
    load_model,
    save_model,
)
from repro.data import FieldNormalizer
from repro.tensor import Tensor, no_grad
from repro.utils.artifacts import manifest_path

RNG = np.random.default_rng(191)


def test_channel_model_roundtrip(tmp_path):
    cfg = ChannelFNOConfig(n_in=3, n_out=2, n_fields=2, modes1=4, modes2=4, width=8, n_layers=2)
    model = build_model(cfg, rng=RNG)
    path = tmp_path / "model.npz"
    save_model(path, model, cfg)
    loaded, loaded_cfg, norm = load_model(path)
    assert loaded_cfg == cfg
    assert norm is None
    x = RNG.standard_normal((2, cfg.in_channels, 16, 16))
    with no_grad():
        assert np.array_equal(model(Tensor(x)).numpy(), loaded(Tensor(x)).numpy())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_load_follows_stored_dtype(tmp_path, dtype):
    """``load_model`` builds the checkpoint's own dtype;
    ``inspect_checkpoint`` names it."""
    cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=2, modes1=2, modes2=2, width=4, n_layers=1)
    model = build_model(cfg, rng=RNG, dtype=dtype)
    path = tmp_path / "model.npz"
    save_model(path, model, cfg)
    assert inspect_checkpoint(path)["dtype"] == np.dtype(dtype).name
    loaded, _, _ = load_model(path)
    for (_, a), (_, b) in zip(model.named_parameters(), loaded.named_parameters()):
        assert b.dtype == dtype and np.array_equal(a.data, b.data)


def test_channel_model_activation_roundtrip(tmp_path):
    """Non-default activation survives the save/load cycle (old
    checkpoints without the key fall back to the dataclass default)."""
    cfg = ChannelFNOConfig(n_in=2, n_out=1, n_fields=2, modes1=2, modes2=2,
                           width=4, n_layers=2, activation="relu")
    model = build_model(cfg, rng=RNG)
    path = tmp_path / "relu.npz"
    save_model(path, model, cfg)
    loaded, loaded_cfg, _ = load_model(path)
    assert loaded_cfg.activation == "relu"
    assert loaded.activation == "relu"
    x = RNG.standard_normal((2, cfg.in_channels, 16, 16))
    with no_grad():
        assert np.array_equal(model(Tensor(x)).numpy(), loaded(Tensor(x)).numpy())


def test_spacetime_model_roundtrip(tmp_path):
    cfg = SpaceTimeFNOConfig(n_fields=1, modes1=2, modes2=2, modes3=2, width=4, n_layers=2)
    model = build_model(cfg, rng=RNG)
    path = tmp_path / "m3.npz"
    save_model(path, model, cfg)
    loaded, loaded_cfg, _ = load_model(path)
    x = RNG.standard_normal((1, 1, 8, 8, 6))
    with no_grad():
        assert np.array_equal(model(Tensor(x)).numpy(), loaded(Tensor(x)).numpy())


def test_normalizer_persisted(tmp_path):
    cfg = ChannelFNOConfig(n_in=2, n_out=1, n_fields=2, modes1=3, modes2=3, width=6, n_layers=2)
    model = build_model(cfg, rng=RNG)
    norm = FieldNormalizer(n_fields=2).fit(RNG.standard_normal((10, 4, 8, 8)) * 3 + 1)
    path = tmp_path / "with_norm.npz"
    save_model(path, model, cfg, norm)
    _, _, loaded_norm = load_model(path)
    x = RNG.standard_normal((4, 4, 8, 8))
    assert np.allclose(loaded_norm.encode(x), norm.encode(x))


def test_creates_parent_dirs(tmp_path):
    cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=1, modes1=2, modes2=2, width=4, n_layers=1)
    model = build_model(cfg, rng=RNG)
    path = tmp_path / "a" / "b" / "model.npz"
    save_model(path, model, cfg)
    assert path.exists()


def test_unknown_kind_rejected(tmp_path):
    import json

    cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=1, modes1=2, modes2=2, width=4, n_layers=1)
    model = build_model(cfg, rng=RNG)
    path = tmp_path / "model.npz"
    save_model(path, model, cfg)
    # Corrupt the header kind.
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(bytes(arrays["header"]).decode())
    header["config"]["kind"] = "transformer"
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez_compressed(path, **arrays)
    # The in-place rewrite invalidates the integrity manifest, which is
    # checked first; drop the sidecar to reach the kind check under test.
    manifest_path(path).unlink()
    with pytest.raises(CheckpointError, match="unknown model kind"):
        load_model(path)


class TestCheckpointErrors:
    """Every failure mode raises CheckpointError naming the offending path."""

    def _save_tiny(self, path):
        cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=1, modes1=2, modes2=2, width=4, n_layers=1)
        save_model(path, build_model(cfg, rng=RNG), cfg)
        return path

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "missing.npz"
        with pytest.raises(CheckpointError, match="missing.npz"):
            load_model(missing)

    def test_non_checkpoint_npz(self, tmp_path):
        # Previously an opaque KeyError("header") deep in np.load.
        path = tmp_path / "not_a_model.npz"
        np.savez(path, some_array=np.arange(5))
        with pytest.raises(CheckpointError, match="not_a_model.npz"):
            load_model(path)
        with pytest.raises(CheckpointError, match="'header'"):
            load_model(path)

    def test_not_an_npz(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not a zip file")
        with pytest.raises(CheckpointError, match="garbage.npz"):
            load_model(path)

    def test_unsupported_version(self, tmp_path):
        import json

        path = self._save_tiny(tmp_path / "model.npz")
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        header = json.loads(bytes(arrays["header"]).decode())
        header["version"] = 99
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        manifest_path(path).unlink()  # reach the version check, not the checksum
        with pytest.raises(CheckpointError, match="version 99"):
            load_model(path)
        with pytest.raises(CheckpointError, match=str(path)):
            inspect_checkpoint(path)

    def test_is_a_value_error_for_old_callers(self, tmp_path):
        with pytest.raises(ValueError):
            load_model(tmp_path / "missing.npz")


class TestInspect:
    def test_reports_config_and_params(self, tmp_path):
        from repro.data import FieldNormalizer

        cfg = ChannelFNOConfig(n_in=2, n_out=1, n_fields=2, modes1=3, modes2=3, width=6, n_layers=2)
        model = build_model(cfg, rng=RNG)
        norm = FieldNormalizer(n_fields=2).fit(RNG.standard_normal((4, 4, 8, 8)))
        path = tmp_path / "model.npz"
        save_model(path, model, cfg, norm)
        info = inspect_checkpoint(path)
        assert info["kind"] == "channel_fno"
        assert info["version"] == 1
        assert info["n_parameters"] == model.num_parameters()
        assert info["config"]["width"] == 6
        assert info["normalizer"] == {"n_fields": 2, "isotropic": False}
        assert info["file_bytes"] == path.stat().st_size

    def test_no_normalizer(self, tmp_path):
        path = tmp_path / "plain.npz"
        cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=1, modes1=2, modes2=2, width=4, n_layers=1)
        save_model(path, build_model(cfg, rng=RNG), cfg)
        assert inspect_checkpoint(path)["normalizer"] is None


class TestFingerprint:
    def test_changes_on_rewrite(self, tmp_path):
        import os

        cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=1, modes1=2, modes2=2, width=4, n_layers=1)
        path = tmp_path / "model.npz"
        save_model(path, build_model(cfg, rng=RNG), cfg)
        before = checkpoint_fingerprint(path)
        st = os.stat(path)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 1))
        assert checkpoint_fingerprint(path) != before
