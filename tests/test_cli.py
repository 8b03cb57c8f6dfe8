"""CLI: generate → analyze → train → rollout round-trip."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import EXIT_BROKEN_PIPE, build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.grid == 32
        assert args.solver == "spectral"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])


@pytest.fixture(scope="module")
def shard(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.npz"
    rc = main([
        "generate", "--grid", "16", "--samples", "3", "--reynolds", "300",
        "--warmup", "0.1", "--duration", "0.3", "--interval", "0.03",
        "--ic", "band", "--out", str(path),
    ])
    assert rc == 0
    return path


class TestPipeline:
    def test_generate_creates_shard(self, shard):
        from repro.data import load_samples

        samples, meta = load_samples(shard)
        assert len(samples) == 3
        assert meta["grid"] == 16

    def test_analyze_runs(self, shard, capsys):
        assert main(["analyze", "--data", str(shard)]) == 0
        out = capsys.readouterr().out
        assert "3 trajectories" in out

    def test_train_and_rollout(self, shard, tmp_path, capsys):
        model_path = tmp_path / "model.npz"
        rc = main([
            "train", "--data", str(shard), "--n-in", "3", "--n-out", "2",
            "--modes", "4", "--width", "6", "--layers", "2",
            "--epochs", "3", "--out", str(model_path),
        ])
        assert rc == 0
        assert model_path.exists()
        capsys.readouterr()

        for mode in ("hybrid", "fno", "pde"):
            rc = main([
                "rollout", "--data", str(shard), "--model", str(model_path),
                "--mode", mode, "--cycles", "1",
            ])
            assert rc == 0
            out = capsys.readouterr().out
            assert "KE" in out

    def test_train_rejects_tiny_dataset(self, shard, tmp_path):
        rc = main([
            "train", "--data", str(shard), "--test-fraction", "0.99",
            "--out", str(tmp_path / "m.npz"),
        ])
        assert rc == 2

    def test_generate_forced(self, tmp_path):
        path = tmp_path / "forced.npz"
        rc = main([
            "generate", "--grid", "16", "--samples", "1", "--reynolds", "300",
            "--warmup", "0.05", "--duration", "0.1", "--interval", "0.05",
            "--forcing", "kolmogorov", "--out", str(path),
        ])
        assert rc == 0
        from repro.data import load_samples

        _, meta = load_samples(path)
        assert meta["forcing"] == "kolmogorov"


class TestInspectAndServeCLI:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8764
        assert args.max_batch == 8
        assert args.default_mode == "hybrid"
        assert not hasattr(args, "non_deterministic")

    def test_serve_model_spec_parsing(self):
        args = build_parser().parse_args(["serve", "--model", "a=x.npz", "--model", "y.npz"])
        assert args.model == ["a=x.npz", "y.npz"]

    def test_serve_trust_flag_parsing(self):
        assert build_parser().parse_args(["serve"]).trust is None
        assert build_parser().parse_args(["serve", "--trust"]).trust == "default"
        args = build_parser().parse_args(["serve", "--trust", "policy.json"])
        assert args.trust == "policy.json"

    def test_serve_rejects_bad_trust_policy(self, tmp_path, capsys):
        rc = main(["serve", "--trust", str(tmp_path / "missing-policy.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "missing-policy.json" in err

        bad = tmp_path / "bad-policy.json"
        bad.write_text('{"max_rms_divergence": -1}')
        rc = main(["serve", "--trust", str(bad)])
        assert rc == 2
        assert "must be positive" in capsys.readouterr().err

    def test_inspect_prints_config(self, tmp_path, capsys):
        from repro.core import ChannelFNOConfig, build_model, save_model

        cfg = ChannelFNOConfig(n_in=2, n_out=1, n_fields=2, modes1=3, modes2=3,
                               width=6, n_layers=2)
        path = tmp_path / "model.npz"
        save_model(path, build_model(cfg, rng=np.random.default_rng(0)), cfg)
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "channel_fno" in out
        assert "width=6" in out
        assert "version 1" in out
        assert "dtype      : float32" in out  # the builders' default

    def test_inspect_into_a_closed_pipe_exits_without_traceback(self, tmp_path):
        # `repro inspect m.npz | true`: the reader is gone before the first
        # write, so the child's stdout raises EPIPE.
        from repro.core import ChannelFNOConfig, build_model, save_model

        cfg = ChannelFNOConfig(n_in=2, n_out=1, n_fields=2, modes1=3, modes2=3,
                               width=6, n_layers=2)
        path = tmp_path / "model.npz"
        save_model(path, build_model(cfg, rng=np.random.default_rng(0)), cfg)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "inspect", str(path)],
                stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr.decode(), proc.stderr.decode()
        assert proc.returncode == EXIT_BROKEN_PIPE

    def test_inspect_bad_path_fails_cleanly(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope.npz")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_serve_rejects_bad_checkpoint(self, tmp_path, capsys):
        rc = main(["serve", "--model", f"m={tmp_path / 'missing.npz'}"])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err
