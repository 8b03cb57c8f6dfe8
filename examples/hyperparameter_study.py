#!/usr/bin/env python
"""Mini hyper-parameter study of the temporal-channel FNO (Sec. VI-A/B).

Sweeps one knob at a time around a base configuration — modes, width,
layers, learning rate — and reports held-out error, parameter counts and
training time, reproducing the paper's observation that accuracy is most
sensitive to the number of retained Fourier modes.

Usage:
    python examples/hyperparameter_study.py [--epochs 10] [--grid 32]
"""

import argparse

import numpy as np

from repro.analysis import per_snapshot_relative_l2
from repro.core import ChannelFNOConfig, Trainer, TrainingConfig, build_model
from repro.data import (
    DataGenConfig,
    FieldNormalizer,
    generate_dataset,
    make_channel_pairs,
    stack_fields,
    train_test_split_samples,
)
from repro.tensor import Tensor, no_grad


def train_and_score(model_cfg, train_cfg, X, Y, Xt, Yt):
    normalizer = FieldNormalizer(n_fields=2).fit(X)
    model = build_model(model_cfg, rng=np.random.default_rng(train_cfg.seed))
    trainer = Trainer(model, train_cfg)
    history = trainer.fit(normalizer.encode(X), normalizer.encode(Y))
    with no_grad():
        pred = normalizer.decode(model(Tensor(normalizer.encode(Xt))).numpy())
    err = per_snapshot_relative_l2(pred, Yt, n_fields=2).mean()
    return float(err), model.num_parameters(), history.total_seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=32)
    parser.add_argument("--samples", type=int, default=8)
    parser.add_argument("--epochs", type=int, default=10)
    args = parser.parse_args()

    data_cfg = DataGenConfig(n=args.grid, reynolds=800.0, n_samples=args.samples,
                             warmup=0.3, duration=0.6, sample_interval=0.02,
                             solver="spectral", ic="band", seed=11)
    print(f"generating {args.samples} trajectories ...")
    samples = generate_dataset(data_cfg, n_workers=1)
    train_s, test_s = train_test_split_samples(samples, n_test=2, rng=np.random.default_rng(0))
    X, Y = make_channel_pairs(stack_fields(train_s, "velocity"), 5, 5)
    Xt, Yt = make_channel_pairs(stack_fields(test_s, "velocity"), 5, 5)

    base_model = dict(n_in=5, n_out=5, n_fields=2, modes1=8, modes2=8, width=12, n_layers=3)
    base_train = dict(epochs=args.epochs, batch_size=8, learning_rate=3e-3,
                      scheduler_step=max(args.epochs // 2, 1), scheduler_gamma=0.5, seed=3)

    sweeps = [
        ("base", {}, {}),
        ("modes=2", {"modes1": 2, "modes2": 2}, {}),
        ("modes=12", {"modes1": 12, "modes2": 12}, {}),
        ("width=6", {"width": 6}, {}),
        ("width=24", {"width": 24}, {}),
        ("layers=2", {"n_layers": 2}, {}),
        ("lr=1.5e-3", {}, {"learning_rate": 1.5e-3}),
    ]

    print(f"\n{'variant':<10} {'test err':>9} {'params':>10} {'train s':>8}")
    results = {}
    for name, m_delta, t_delta in sweeps:
        mcfg = ChannelFNOConfig(**{**base_model, **m_delta})
        tcfg = TrainingConfig(**{**base_train, **t_delta})
        err, params, seconds = train_and_score(mcfg, tcfg, X, Y, Xt, Yt)
        results[name] = err
        print(f"{name:<10} {err:9.4f} {params:10,} {seconds:8.1f}")

    print("\nsensitivity relative to base:")
    for name, err in results.items():
        if name != "base":
            print(f"  {name:<10} Δerr = {err - results['base']:+.4f}")
    print("\n(paper Fig. 6: the error is most sensitive to the number of Fourier modes)")


if __name__ == "__main__":
    main()
