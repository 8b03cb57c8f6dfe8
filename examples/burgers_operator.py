#!/usr/bin/env python
"""Canonical test case: learn the viscous Burgers solution operator.

The paper's outlook (Sec. VII) argues that surrogate models "should at
the minimum replicate canonical test cases of fluid dynamics".  This
example reproduces the original FNO paper's first benchmark in
miniature: learn the map ``u(x, 0) → u(x, T)`` for

    u_t + u u_x = ν u_xx     (periodic)

with a 1-D FNO, and verify zero-shot resolution transfer by evaluating
the trained model on a finer grid than it was trained on.

Usage:
    python examples/burgers_operator.py [--n 64] [--train 60] [--epochs 60]
"""

import argparse
import time

import numpy as np

from repro.core import Trainer, TrainingConfig
from repro.nn import FNO
from repro.ns import BurgersSolver1D, random_initial_condition_1d
from repro.tensor import Tensor, no_grad


def make_dataset(n_samples, n, nu, horizon, rng):
    X = np.empty((n_samples, 1, n))
    Y = np.empty_like(X)
    for i in range(n_samples):
        u0 = random_initial_condition_1d(n, rng, k_max=4)
        solver = BurgersSolver1D(n, nu)
        solver.set_state(u0)
        solver.advance(horizon)
        X[i, 0] = u0
        Y[i, 0] = solver.u
    return X, Y


def rel_l2(pred, true):
    return float(np.linalg.norm(pred - true) / np.linalg.norm(true))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=64, help="training grid points")
    parser.add_argument("--train", type=int, default=48, help="training samples")
    parser.add_argument("--test", type=int, default=12)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--viscosity", type=float, default=0.1)
    parser.add_argument("--horizon", type=float, default=0.5)
    args = parser.parse_args()

    rng = np.random.default_rng(0)
    print(f"generating {args.train + args.test} Burgers trajectories (ν={args.viscosity}) ...")
    X, Y = make_dataset(args.train + args.test, args.n, args.viscosity, args.horizon, rng)
    Xtr, Ytr = X[: args.train], Y[: args.train]
    Xte, Yte = X[args.train :], Y[args.train :]

    model = FNO(1, 1, (12,), width=24, n_layers=3, rng=np.random.default_rng(1))
    print(f"1-D FNO with {model.num_parameters():,} parameters")
    trainer = Trainer(model, TrainingConfig(
        epochs=args.epochs, batch_size=8, learning_rate=3e-3,
        scheduler_step=max(args.epochs // 3, 1), scheduler_gamma=0.5, seed=1,
    ))
    t0 = time.perf_counter()
    trainer.fit(Xtr, Ytr, log_every=max(args.epochs // 6, 1))
    print(f"trained in {time.perf_counter() - t0:.1f}s")

    with no_grad():
        pred = model(Tensor(Xte)).numpy()
    err = rel_l2(pred, Yte)
    base = rel_l2(Xte, Yte)  # persistence: u(T) ≈ u(0)
    print(f"\ntest rel. L2: model {err:.4f}   persistence {base:.4f}")

    # Zero-shot super-resolution: same weights on a 4x finer grid.
    fine = 4 * args.n
    Xf, Yf = make_dataset(args.test, fine, args.viscosity, args.horizon,
                          np.random.default_rng(99))
    with no_grad():
        pred_fine = model(Tensor(Xf)).numpy()
    err_fine = rel_l2(pred_fine, Yf)
    print(f"zero-shot at {fine} points (trained at {args.n}): rel. L2 {err_fine:.4f}")
    print("(discretisation-agnostic: the operator transfers across grids)")


if __name__ == "__main__":
    main()
