"""Equilibrium distributions for the D2Q9 lattice.

Two forms:

* :func:`polynomial_equilibrium` — the standard second-order Mach
  expansion used with BGK collisions.
* :func:`entropic_equilibrium` — the exact minimiser of the discrete
  H-function ``H = Σ f ln(f/w)`` under mass/momentum constraints
  (product form; Ansumali, Karlin & Öttinger 2003).  This is the
  equilibrium of the *essentially entropic* model the paper's dataset
  was produced with.

Shapes: densities ``rho`` are ``(n, n)``; velocities ``u`` are
``(2, n, n)`` in lattice units; populations are ``(Q, n, n)``.
"""

from __future__ import annotations

import numpy as np

from .lattice import CS2, Q, VELOCITIES, WEIGHTS

__all__ = ["polynomial_equilibrium", "entropic_equilibrium"]


def polynomial_equilibrium(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Second-order polynomial equilibrium.

    ``f_i^eq = w_i ρ (1 + c·u/c_s² + (c·u)²/(2c_s⁴) − u²/(2c_s²))``
    """
    cu = np.tensordot(VELOCITIES.astype(float), u, axes=(1, 0))  # (Q, n, n)
    usq = u[0] ** 2 + u[1] ** 2
    feq = WEIGHTS[:, None, None] * rho[None] * (
        1.0 + cu / CS2 + 0.5 * cu * cu / (CS2 * CS2) - 0.5 * usq[None] / CS2
    )
    return feq


def entropic_equilibrium(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Exact (product-form) entropic equilibrium.

    ``f_i^eq = ρ w_i Π_α (2 − √(1+3u_α²)) ((2u_α + √(1+3u_α²))/(1 − u_α))^{c_iα}``

    Valid for ``|u_α| < 1``; conserves mass and momentum to machine
    precision and keeps populations strictly positive.
    """
    u = np.asarray(u, dtype=float)
    shape = u.shape[1:]
    return _entropic_equilibrium(rho, u, np.empty((Q,) + shape), np.empty((5,) + shape))


def _entropic_equilibrium(rho: np.ndarray, u: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Kernel of :func:`entropic_equilibrium`: writes ``f_eq`` into ``out``
    (Q, n, n), using five planes of ``scratch`` for its temporaries."""
    if np.any(np.abs(u) >= 1.0):
        raise ValueError("entropic equilibrium requires |u| < 1 (lattice units)")
    root, base, ratio = scratch[0:2], scratch[2], scratch[3:5]
    np.multiply(u, 3.0, out=root)
    root *= u
    root += 1.0
    np.sqrt(root, out=root)  # √(1 + 3u²)
    front = np.subtract(2.0, root, out=ratio)
    np.multiply(rho, front[0], out=base)
    base *= front[1]
    np.multiply(u, 2.0, out=ratio)
    ratio += root
    ratio /= np.subtract(1.0, u, out=root)  # (2u + √(1 + 3u²)) / (1 − u)
    inverse = np.divide(1.0, ratio, out=root)
    for i in range(Q):
        term = base
        for axis, c in enumerate(VELOCITIES[i]):
            if c:
                term = np.multiply(term, ratio[axis] if c > 0 else inverse[axis], out=out[i])
        np.multiply(term, WEIGHTS[i], out=out[i])
    return out
