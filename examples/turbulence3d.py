#!/usr/bin/env python
"""The paper's proposed 3-D extension, end to end (Sec. VII).

"An extension of the present framework to 3D should be straightforward
with 3D FNO for spatial and channels for temporal dimensions."  This
example runs that recipe: simulate decaying 3-D turbulence with the
pseudo-spectral solver, train a 3-D-spatial FNO whose channels carry the
temporal snapshots, and evaluate against the persistence baseline.

Usage:
    python examples/turbulence3d.py [--grid 16] [--samples 5] [--epochs 60]
"""

import argparse
import time

import numpy as np

from repro.core import (
    Spatial3DChannelsConfig,
    Trainer,
    TrainingConfig,
    build_model,
)
from repro.data import FieldNormalizer, make_channel_pairs
from repro.ns3d import (
    SpectralNSSolver3D,
    divergence3d,
    enstrophy3d,
    kinetic_energy3d,
    random_solenoidal_velocity,
)
from repro.tensor import Tensor, no_grad


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--grid", type=int, default=16)
    parser.add_argument("--samples", type=int, default=5)
    parser.add_argument("--snapshots", type=int, default=11)
    parser.add_argument("--interval", type=float, default=0.02, help="t_c units")
    parser.add_argument("--reynolds", type=float, default=400.0)
    parser.add_argument("--n-in", type=int, default=3)
    parser.add_argument("--n-out", type=int, default=2)
    parser.add_argument("--epochs", type=int, default=80)
    args = parser.parse_args()

    t_c = 2 * np.pi
    nu = t_c / args.reynolds
    n = args.grid

    print(f"simulating {args.samples} trajectories of {args.grid}^3 decaying 3-D turbulence ...")
    t0 = time.perf_counter()
    data = np.empty((args.samples, args.snapshots, 3, n, n, n))
    for i in range(args.samples):
        solver = SpectralNSSolver3D(n, nu)
        solver.set_velocity(random_solenoidal_velocity(n, np.random.default_rng(100 + i), k_peak=2.5))
        solver.advance(0.2 * t_c)
        for t in range(args.snapshots):
            if t > 0:
                solver.advance(args.interval * t_c)
            data[i, t] = solver.velocity
        d = solver.diagnostics()
        print(f"  sample {i}: KE {kinetic_energy3d(data[i, 0]):.4f} → {d['kinetic_energy']:.4f}, "
              f"enstrophy {enstrophy3d(data[i, 0]):.3f} → {d['enstrophy']:.3f}, "
              f"max div {np.abs(divergence3d(data[i, -1])).max():.1e}")
    print(f"simulation took {time.perf_counter() - t0:.1f}s")

    train, test = data[:-1], data[-1:]
    X, Y = make_channel_pairs(train, n_in=args.n_in, n_out=args.n_out)
    Xt, Yt = make_channel_pairs(test, n_in=args.n_in, n_out=args.n_out, stride=args.n_out)
    norm = FieldNormalizer(n_fields=3).fit(X)
    print(f"\ntraining pairs: {X.shape[0]} of shape {X.shape[1:]}")

    cfg = Spatial3DChannelsConfig(n_in=args.n_in, n_out=args.n_out, n_fields=3,
                                  modes1=4, modes2=4, modes3=3, width=8, n_layers=2)
    model = build_model(cfg, rng=np.random.default_rng(0))
    print(f"3-D spatial FNO with temporal channels: {model.num_parameters():,} parameters")
    trainer = Trainer(model, TrainingConfig(epochs=args.epochs, batch_size=4, learning_rate=3e-3,
                                            scheduler_step=max(args.epochs // 3, 1),
                                            scheduler_gamma=0.5, seed=0))
    trainer.fit(norm.encode(X), norm.encode(Y), log_every=max(args.epochs // 6, 1))

    with no_grad():
        pred = norm.decode(model(Tensor(norm.encode(Xt))).numpy())
    err = float(np.linalg.norm(pred - Yt) / np.linalg.norm(Yt))
    persistence = np.concatenate([Xt[:, -3:]] * args.n_out, axis=1)
    base = float(np.linalg.norm(persistence - Yt) / np.linalg.norm(Yt))
    print(f"\ntest rel. L2: model {err:.4f}   persistence {base:.4f}")
    print("(Sec. VII: '3D FNO for spatial and channels for temporal dimensions')")


if __name__ == "__main__":
    main()
