"""Workload inputs, generated from the run's seed.

Windows and training pairs come from short pseudo-spectral trajectories
(64², Re 800, band-limited initial condition, 0.5 t_c warm-up, 1.0 t_c
recorded every 0.02 t_c).  Pairs use stride 1 so two trajectories give
the 64 training pairs; the serving windows are eight of them spread over
both trajectories.

The model is the paper-shaped temporal-channel FNO (``ChannelFNOConfig()``
defaults: 10 → 5 snapshots, 2 fields, width 20, 12 modes, 4 layers,
projection 128, GELU, float64) initialised from the seed.  The serving
checkpoint is deliberately *untrained*, so training-path changes cannot
move the serving workloads; its normalizer is fitted on the pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ChannelFNOConfig
from repro.core.models import build_fno2d_channels
from repro.core.zoo import save_model
from repro.data.dataset import make_channel_pairs, stack_fields
from repro.data.generation import DataGenConfig, generate_dataset
from repro.data.normalization import FieldNormalizer

__all__ = ["MODEL_NAME", "N_WINDOWS", "N_PAIRS", "Inputs", "build_inputs"]

MODEL_NAME = "ledger"
N_TRAJECTORIES = 2
N_WINDOWS = 8
N_PAIRS = 64


@dataclass
class Inputs:
    seed: int
    config: ChannelFNOConfig
    normalizer: FieldNormalizer
    x: np.ndarray        # (N_PAIRS, n_in·2, 64, 64), physical units
    y: np.ndarray        # (N_PAIRS, n_out·2, 64, 64)
    windows: np.ndarray  # (N_WINDOWS, n_in, 2, 64, 64)

    def new_model(self):
        """A freshly initialised model; the same weights for the same seed."""
        return build_fno2d_channels(self.config, rng=np.random.default_rng(self.seed))

    def save_checkpoint(self, path) -> None:
        save_model(path, self.new_model(), self.config, self.normalizer)


def build_inputs(seed: int) -> Inputs:
    config = ChannelFNOConfig()
    samples = generate_dataset(DataGenConfig(
        n=64, reynolds=800.0, solver="spectral", ic="band", warmup=0.5,
        duration=1.0, sample_interval=0.02, n_samples=N_TRAJECTORIES, seed=seed,
    ), n_workers=1)
    x, y = make_channel_pairs(stack_fields(samples), config.n_in, config.n_out, stride=1)
    if len(x) < N_PAIRS:
        raise ValueError(f"only {len(x)} pairs generated, need {N_PAIRS}")
    picks = np.linspace(0, len(x) - 1, N_WINDOWS).round().astype(int)
    n = x.shape[-1]
    windows = x[picks].reshape(N_WINDOWS, config.n_in, config.n_fields, n, n)
    return Inputs(
        seed=seed,
        config=config,
        normalizer=FieldNormalizer(n_fields=config.n_fields).fit(x),
        x=x[:N_PAIRS],
        y=y[:N_PAIRS],
        windows=np.ascontiguousarray(windows),
    )
