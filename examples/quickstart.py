#!/usr/bin/env python
"""Quickstart: train a temporal-channel FNO on 2-D decaying turbulence.

End-to-end in a few minutes on a laptop CPU:

1. generate a small dataset of decaying-turbulence trajectories with the
   pseudo-spectral Navier–Stokes solver;
2. window it into (5-snapshot input → 5-snapshot output) velocity pairs;
3. train a 2-D FNO with the paper's protocol (Adam + StepLR, relative L2);
4. evaluate per-snapshot errors on held-out trajectories and compare with
   the persistence baseline;
5. save the pre-trained model for reuse (see hybrid_long_rollout.py).

Usage:
    python examples/quickstart.py [--grid 32] [--samples 8] [--epochs 30]
"""

import argparse
import time

import numpy as np

from repro.analysis import per_snapshot_relative_l2
from repro.core import (
    ChannelFNOConfig,
    Trainer,
    TrainingConfig,
    build_model,
    save_model,
)
from repro.data import (
    DataGenConfig,
    FieldNormalizer,
    generate_dataset,
    make_channel_pairs,
    stack_fields,
    train_test_split_samples,
)
from repro.tensor import Tensor, no_grad


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=32, help="grid points per side")
    parser.add_argument("--samples", type=int, default=8, help="number of trajectories")
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--reynolds", type=float, default=800.0)
    parser.add_argument("--n-in", type=int, default=5, help="input snapshots")
    parser.add_argument("--n-out", type=int, default=5, help="output snapshots")
    parser.add_argument("--workers", type=int, default=1, help="processes for data generation")
    parser.add_argument("--out", default="quickstart_model.npz", help="model checkpoint path")
    args = parser.parse_args()

    # ------------------------------------------------------------------
    # 1. Data: decaying 2-D turbulence trajectories.
    # ------------------------------------------------------------------
    print(f"Generating {args.samples} trajectories on a {args.grid}^2 grid ...")
    data_config = DataGenConfig(
        n=args.grid,
        reynolds=args.reynolds,
        n_samples=args.samples,
        warmup=0.3,
        duration=0.6,
        sample_interval=0.02,
        solver="spectral",
        ic="band",
        seed=0,
    )
    t0 = time.perf_counter()
    samples = generate_dataset(data_config, n_workers=args.workers)
    print(f"  done in {time.perf_counter() - t0:.1f}s "
          f"(Re at t=0: {samples[0].reynolds:.0f})")

    train_s, test_s = train_test_split_samples(samples, n_test=max(1, args.samples // 4),
                                               rng=np.random.default_rng(0))
    X, Y = make_channel_pairs(stack_fields(train_s, "velocity"), args.n_in, args.n_out)
    Xt, Yt = make_channel_pairs(stack_fields(test_s, "velocity"), args.n_in, args.n_out)
    print(f"  training pairs: {X.shape[0]}, test pairs: {Xt.shape[0]}")

    normalizer = FieldNormalizer(n_fields=2).fit(X)

    # ------------------------------------------------------------------
    # 2. Model + training (paper protocol).
    # ------------------------------------------------------------------
    model_config = ChannelFNOConfig(
        n_in=args.n_in, n_out=args.n_out, n_fields=2,
        modes1=8, modes2=8, width=16, n_layers=3,
    )
    model = build_model(model_config, rng=np.random.default_rng(1))
    print(f"2-D FNO with {model.num_parameters():,} parameters")

    trainer = Trainer(model, TrainingConfig(
        epochs=args.epochs, batch_size=8, learning_rate=3e-3,
        scheduler_step=max(args.epochs // 3, 1), scheduler_gamma=0.5, seed=1,
    ))
    history = trainer.fit(
        normalizer.encode(X), normalizer.encode(Y),
        normalizer.encode(Xt), normalizer.encode(Yt),
        log_every=max(args.epochs // 6, 1),
    )
    print(f"trained in {history.total_seconds:.1f}s; best val loss {history.best_val_loss:.4f}")

    # ------------------------------------------------------------------
    # 3. Evaluation: per-snapshot error vs persistence baseline.
    # ------------------------------------------------------------------
    with no_grad():
        pred = normalizer.decode(model(Tensor(normalizer.encode(Xt))).numpy())
    errs = per_snapshot_relative_l2(pred, Yt, n_fields=2)
    persistence = np.concatenate([Xt[:, -2:]] * args.n_out, axis=1)
    base = per_snapshot_relative_l2(persistence, Yt, n_fields=2)
    print("\nper-snapshot relative L2 error (test):")
    for i, (e, b) in enumerate(zip(errs, base)):
        print(f"  t+{i + 1}: model {e:.4f}   persistence {b:.4f}")
    print("  (persistence is strong at t+1 — over one short step the field barely")
    print("   moves, the pitfall paper Sec. IV warns about; the model wins beyond)")

    save_model(args.out, model, model_config, normalizer)
    print(f"\nmodel saved to {args.out}")


if __name__ == "__main__":
    main()
