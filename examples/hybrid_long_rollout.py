#!/usr/bin/env python
"""Hybrid FNO–PDE long roll-out (paper Sec. VI-C, Figs. 8–9).

Loads (or trains) a pre-trained temporal-channel FNO, then rolls a test
trajectory forward three ways:

* pure PDE (finite-difference Navier–Stokes) — the reference;
* pure FNO — fast but drifts / goes unphysical;
* hybrid — alternating FNO windows and PDE windows.

Prints kinetic-energy/enstrophy/divergence histories and the percentage
errors of the two surrogates against the reference.

Usage:
    python examples/hybrid_long_rollout.py [--model quickstart_model.npz] [--cycles 4]
"""

import argparse
from pathlib import Path

import numpy as np

from repro.analysis import percentage_error
from repro.core import (
    HybridConfig,
    HybridFNOPDE,
    load_model,
    run_pure_fno,
    run_pure_pde,
)
from repro.data import DataGenConfig, generate_sample
from repro.ns import FDNSSolver2D, SpectralNSSolver2D


def ensure_model(path: str):
    """Load the quickstart checkpoint, training one first if missing."""
    if not Path(path).exists():
        print(f"{path} not found — running quickstart first (a few minutes) ...")
        import subprocess
        import sys

        subprocess.run(
            [sys.executable, str(Path(__file__).parent / "quickstart.py"),
             "--epochs", "25", "--out", path],
            check=True,
        )
    return load_model(path)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="quickstart_model.npz")
    parser.add_argument("--cycles", type=int, default=4, help="hybrid FNO+PDE cycles")
    parser.add_argument("--reynolds", type=float, default=800.0)
    parser.add_argument("--partner", choices=["spectral", "fd"], default="spectral",
                        help="PDE partner solver; 'fd' exercises the paper's cross-solver "
                             "setup but at coarse grids the representation handoff hurts "
                             "(see EXPERIMENTS.md, Fig. 9)")
    args = parser.parse_args()

    model, config, normalizer = ensure_model(args.model)
    n_in, n_out = config.n_in, config.n_out
    print(f"loaded 2-D FNO ({n_in} in → {n_out} out snapshots, "
          f"{model.num_parameters():,} parameters)")

    # A fresh test trajectory (different seed from the training data).
    grid = 32
    dt = 0.02
    data_config = DataGenConfig(n=grid, reynolds=args.reynolds, n_samples=1, warmup=0.3,
                                duration=dt * (n_in - 1), sample_interval=dt,
                                solver="spectral", ic="band", seed=777)
    sample = generate_sample(data_config, np.random.default_rng(777))
    window = sample.velocity[:n_in]

    nu = data_config.length / args.reynolds
    solver_cls = SpectralNSSolver2D if args.partner == "spectral" else FDNSSolver2D
    hybrid_cfg = HybridConfig(n_in=n_in, n_out=n_out, n_fields=2,
                              sample_interval=dt, n_cycles=args.cycles)

    print(f"\nrunning hybrid ({args.cycles} cycles, {args.partner} partner) ...")
    hybrid = HybridFNOPDE(model, solver_cls(grid, nu), hybrid_cfg,
                          normalizer=normalizer).run(window)
    n_pred = hybrid.n_snapshots - n_in
    print(f"running pure FNO and pure PDE for the same {n_pred} snapshots ...")
    fno = run_pure_fno(model, window, n_snapshots=n_pred, n_fields=2,
                       normalizer=normalizer, sample_interval=dt)
    ref = run_pure_pde(solver_cls(grid, nu), window, n_snapshots=n_pred,
                       sample_interval=dt)

    d_ref = ref.diagnostics()
    d_fno = fno.diagnostics()
    d_hyb = hybrid.diagnostics()

    print("\n  t/t_c   KE%(fno)  KE%(hyb)   Z%(fno)   Z%(hyb)  div(fno)  div(hyb)  src")
    ke_f = percentage_error(d_fno["kinetic_energy"], d_ref["kinetic_energy"])
    ke_h = percentage_error(d_hyb["kinetic_energy"], d_ref["kinetic_energy"])
    z_f = percentage_error(d_fno["enstrophy"], d_ref["enstrophy"])
    z_h = percentage_error(d_hyb["enstrophy"], d_ref["enstrophy"])
    for i in range(0, hybrid.n_snapshots, max(1, hybrid.n_snapshots // 15)):
        print(f"  {d_ref['times'][i]:5.2f}   {ke_f[i]:7.2f}  {ke_h[i]:7.2f}  "
              f"{z_f[i]:7.2f}  {z_h[i]:7.2f}  {d_fno['rms_divergence'][i]:.2e}  "
              f"{d_hyb['rms_divergence'][i]:.2e}  {hybrid.source[i]}")

    print("\nfinal-time summary:")
    print(f"  kinetic energy error:  pure FNO {ke_f[-1]:6.2f}%   hybrid {ke_h[-1]:6.2f}%")
    print(f"  enstrophy error:       pure FNO {z_f[-1]:6.2f}%   hybrid {z_h[-1]:6.2f}%")
    print("  (paper: hybrid KE error stays < 10%, pure-FNO errors blow up;")
    print("   enstrophy errors exceed KE errors because gradients are not learned)")


if __name__ == "__main__":
    main()
