"""Shared fixtures: small cached datasets and trained models.

Session-scoped so the expensive pieces (solver trajectories, a trained
model) are built once per test run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ChannelFNOConfig, Trainer, TrainingConfig, build_model
from repro.data import (
    DataGenConfig,
    FieldNormalizer,
    generate_dataset,
    make_channel_pairs,
    stack_fields,
)

GRID = 32

# Seed matrix for the trust-layer property tests: small, fast spectral
# trajectories whose physics properties (round-off divergence, decaying
# energy, small PDE residual) must hold for *every* seed, not a lucky one.
TRUST_SEEDS = (0, 1, 2)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def seed_matrix_trajectories():
    """``{seed: (config, sample)}`` — one short spectral trajectory per seed."""
    out = {}
    for seed in TRUST_SEEDS:
        config = DataGenConfig(
            n=24,
            reynolds=400.0,
            n_samples=1,
            warmup=0.1,
            duration=0.3,
            sample_interval=0.02,
            solver="spectral",
            ic="band",
            seed=seed,
        )
        out[seed] = (config, generate_dataset(config, n_workers=1)[0])
    return out


@pytest.fixture(scope="session")
def small_dataset():
    """Four short spectral-solver trajectories on a 32² grid."""
    config = DataGenConfig(
        n=GRID,
        reynolds=400.0,
        n_samples=4,
        warmup=0.2,
        duration=0.4,
        sample_interval=0.02,
        solver="spectral",
        ic="band",
        seed=99,
    )
    return config, generate_dataset(config, n_workers=1)


@pytest.fixture(scope="session")
def velocity_data(small_dataset):
    """Stacked velocity trajectories ``(S, T, 2, n, n)``."""
    _, samples = small_dataset
    return stack_fields(samples, "velocity")


@pytest.fixture(scope="session")
def trained_channel_model(velocity_data):
    """A small temporal-channel FNO trained for a handful of epochs.

    Returns ``(model, config, normalizer, (X, Y))`` with the training
    pairs in physical units.
    """
    config = ChannelFNOConfig(n_in=5, n_out=2, n_fields=2, modes1=8, modes2=8, width=10, n_layers=3)
    X, Y = make_channel_pairs(velocity_data, n_in=config.n_in, n_out=config.n_out)
    normalizer = FieldNormalizer(n_fields=2).fit(X)
    model = build_model(config, rng=np.random.default_rng(5))
    trainer = Trainer(
        model,
        TrainingConfig(
            epochs=40, batch_size=8, learning_rate=3e-3,
            scheduler_step=15, scheduler_gamma=0.5, seed=5,
        ),
    )
    trainer.fit(normalizer.encode(X), normalizer.encode(Y))
    return model, config, normalizer, (X, Y)


def finite_difference_grad(f, param_data: np.ndarray, indices, eps: float = 1e-6):
    """Central finite differences of scalar ``f()`` w.r.t. selected entries."""
    flat = param_data.reshape(-1)
    grads = {}
    for i in indices:
        old = flat[i]
        flat[i] = old + eps
        fp = f()
        flat[i] = old - eps
        fm = f()
        flat[i] = old
        grads[i] = (fp - fm) / (2.0 * eps)
    return grads
