"""Collision operators: BGK and entropic (adaptive α).

The entropic collision writes the post-collision state as

    f' = f + α β (f_eq − f),      β = 1 / (2τ)

where the path length ``α`` is the non-trivial root of the entropy
condition ``H(f + αΔ) = H(f)`` with ``Δ = f_eq − f`` and
``H(f) = Σ_i f_i ln(f_i / w_i)``.  For well-resolved flows ``α ≈ 2``
(recovering BGK); near under-resolved gradients ``α < 2`` acts as a
smart, parameter-free limiter — this is what lets the entropic model run
stably at the paper's Re ≈ 7000–8000.

``solve_alpha`` performs a vectorised, damped Newton iteration with
positivity-aware bracketing; cells where the deviation from equilibrium
is negligible keep the BGK value ``α = 2``.

One kernel serves the public functions and :class:`~repro.lbm.LBMSolver2D`:
it works in a :class:`Workspace` of population-sized buffers (Δ, one
scratch buffer, a mask) plus the caller's ``f_eq`` buffer, which
it consumes, and allocates nothing population-sized.  ``H(f)`` is
computed once per solve; once fewer than half the cells of an iteration
still move, Newton continues on those cells alone, gathered into
contiguous ``(Q, m)`` blocks.  Those blocks add their population rows one
after another (:func:`_sum_rows`), the order numpy's axis-0 sum takes
over all cells, so a compacted cell gets the bits the dense iteration
would have given it.
"""

from __future__ import annotations

import numpy as np

from .lattice import Q, WEIGHTS

__all__ = ["h_function", "solve_alpha", "bgk_collide", "entropic_collide", "mrt_collide", "MRT_MATRIX"]

_W = WEIGHTS[:, None]  # broadcasts over populations laid out as (Q, cells)


class Workspace:
    """Population-sized scratch of the entropic kernel for one grid shape.

    ``delta`` holds ``Δ = f_eq − f`` from the α solve until the collision
    consumes it, ``scratch`` holds ``ln(x/w)`` in the Newton iterations
    (and the solver's moments and equilibrium temporaries before them),
    and ``unbounding`` marks the populations (``Δ ≥ 0``) that do not
    bound α for positivity.  ``cells`` holds four per-cell planes: H(f),
    the upper end of the Newton bracket, G(α) and G'(α).
    """

    def __init__(self, shape: tuple[int, ...]):
        self.delta = np.empty(shape)
        self.scratch = np.empty(shape)
        self.unbounding = np.empty(shape, dtype=bool)
        self.cells = np.empty((4,) + tuple(shape[1:]))


def _sum_dense(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``Σ_i t[i]`` over all cells: numpy's axis-0 sum, as ``f.sum(axis=0)``."""
    return np.sum(t, axis=0, out=out)


def _sum_rows(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``Σ_i t[i]`` added row after row into ``out``.

    This is the order numpy's axis-0 sum takes on a C-ordered
    ``(Q, n, n)`` array, kept for any number of columns: the sum of a
    ``(Q, m)`` block may go pairwise instead (a gathered ``x[:, idx]`` is
    F-ordered and does), which changes the bits.
    """
    np.copyto(out, t[0])
    for row in t[1:]:
        out += row
    return out


def _entropy(x: np.ndarray, log_x: np.ndarray, out: np.ndarray, total=_sum_dense) -> np.ndarray:
    """``out = Σ_i x_i ln(x_i/w_i)`` for positive ``x`` of shape (Q, cells).

    Leaves ``ln(x/w)`` in ``log_x`` and overwrites ``x`` with the terms;
    ``total`` does the sum over populations.
    """
    np.divide(x, _W, out=log_x)
    np.log(log_x, out=log_x)
    x *= log_x
    return total(x, out)


def h_function(f: np.ndarray) -> np.ndarray:
    """Discrete H-function ``Σ_i f_i ln(f_i/w_i)`` per cell (shape (n, n)).

    Populations ``f_i ≤ 0`` contribute nothing: they enter as ``w_i``,
    whose term ``w_i ln 1`` is exactly zero.
    """
    f = np.asarray(f, dtype=float)
    x = np.where(f > 0, f, WEIGHTS.reshape((Q,) + (1,) * (f.ndim - 1))).reshape(Q, -1)
    out = np.empty(f.shape[1:])
    _entropy(x, np.empty_like(x), out.reshape(-1))
    return out


def _solve_alpha(
    f: np.ndarray, feq: np.ndarray, work: Workspace, tol: float, max_iter: int, alpha_init: float
) -> np.ndarray:
    """Kernel of :func:`solve_alpha` for C-ordered ``f`` and ``feq``.

    Leaves ``Δ`` in ``work.delta``; ``feq`` and ``work.scratch`` are
    used as scratch and come back clobbered.
    """
    shape = f.shape[1:]
    f2 = f.reshape(Q, -1)
    delta = np.subtract(feq, f, out=work.delta).reshape(Q, -1)
    fbuf, sbuf = feq.reshape(Q, -1), work.scratch.reshape(Q, -1)

    # Cells with negligible deviation keep α = 2: Newton would divide by ~0.
    active = np.abs(delta, out=sbuf).max(axis=0) / np.maximum(np.abs(fbuf, out=fbuf).max(axis=0), 1e-15) > 1e-12

    # Positivity bound: f + αΔ must stay positive.  α_max is the largest
    # admissible step (cells with all Δ ≥ 0 are unbounded).
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(f2, delta, out=sbuf)
    np.negative(sbuf, out=sbuf)  # −f/Δ
    unbounding = np.less(delta, 0.0, out=work.unbounding.reshape(Q, -1))
    np.putmask(sbuf, np.logical_not(unbounding, out=unbounding), np.inf)  # ∞ where Δ ≥ 0
    h_f, hi, g, gp = work.cells.reshape(4, -1)
    alpha_max = np.multiply(sbuf.min(axis=0), 0.999, out=hi)
    bounded = np.isfinite(alpha_max)
    alpha = np.minimum(float(alpha_init), np.where(bounded, alpha_max, alpha_init))

    # The path H(f + αΔ) has its minimum at α = 1 (the equilibrium), so the
    # non-trivial root of G(α) = H(f + αΔ) − H(f) = 0 always lies in
    # (1, α_max]; clamping the Newton iterate into that bracket prevents
    # convergence to the trivial root at α = 0.
    lo = 1.0 + 1e-9
    np.maximum(alpha_max, lo, out=hi)
    np.copyto(hi, 4.0, where=~bounded)
    _entropy(np.maximum(f2, 1e-15, out=fbuf), sbuf, h_f)

    # The iteration runs over a set of cells: all of them (views of the
    # dense arrays), then, once fewer than half still move, only those,
    # gathered from the dense f and Δ into the front halves of the free
    # buffers (m < N/2 cells, so two (Q, m) blocks fit in one buffer) and
    # summed row by row, in the order of the dense sum.
    cells = None
    fx, dx, hx, hix, ax, actx = f2, delta, h_f, hi, alpha, active
    fa, log_fa, total = fbuf, sbuf, _sum_dense
    for _ in range(max_iter):
        np.multiply(dx, ax, out=fa)
        fa += fx
        np.maximum(fa, 1e-15, out=fa)
        _entropy(fa, log_fa, g, total)
        g -= hx  # G(α)
        log_fa += 1.0
        log_fa *= dx
        total(log_fa, gp)  # G'(α)
        update = np.abs(g) < tol
        np.logical_not(update, out=update)
        update &= actx
        np.copyto(gp, 1.0, where=~(np.abs(gp) > 1e-15))
        g /= gp
        np.subtract(ax, g, out=g)
        np.copyto(ax, np.clip(g, lo, hix, out=g), where=update)
        if cells is not None:
            alpha[cells] = ax
        moving = np.count_nonzero(update)
        if not moving:
            break
        if 2 * moving < update.size:
            cells = np.flatnonzero(update) if cells is None else cells[update]
            m = cells.size
            fx = np.take(f2, cells, axis=1, out=fbuf.reshape(-1)[: Q * m].reshape(Q, m), mode="clip")
            dx = np.take(delta, cells, axis=1, out=sbuf.reshape(-1)[: Q * m].reshape(Q, m), mode="clip")
            fa = fbuf.reshape(-1)[Q * m : 2 * Q * m].reshape(Q, m)
            log_fa = sbuf.reshape(-1)[Q * m : 2 * Q * m].reshape(Q, m)
            hx, hix, ax, actx = h_f[cells], hi[cells], alpha[cells], active[cells]
            g, gp, total = g[:m], gp[:m], _sum_rows

    return np.where(active, alpha, 2.0).reshape(shape)


def solve_alpha(
    f: np.ndarray,
    feq: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 20,
    alpha_init: float = 2.0,
) -> np.ndarray:
    """Solve the entropy condition for the path length ``α`` per cell.

    Returns an array of shape ``(n, n)``; cells essentially at
    equilibrium get ``α = 2`` (the BGK fixed point of the condition).
    """
    f = np.ascontiguousarray(f, dtype=float)
    feq = np.array(feq, dtype=float, order="C")
    return _solve_alpha(f, feq, Workspace(f.shape), tol, max_iter, alpha_init)


def _entropic_collide(f: np.ndarray, feq: np.ndarray, tau: float, work: Workspace) -> np.ndarray:
    """Kernel of :func:`entropic_collide`: ``f`` becomes ``f'`` in place,
    ``feq`` is consumed, and the returned ``α`` is a fresh array."""
    alpha = _solve_alpha(f, feq, work, 1e-10, 20, 2.0)
    step = work.delta
    step *= alpha * (1.0 / (2.0 * tau))  # αβΔ
    f += step
    return alpha


def bgk_collide(f: np.ndarray, feq: np.ndarray, tau: float) -> np.ndarray:
    """Single-relaxation-time BGK collision ``f + (f_eq − f)/τ``."""
    return f + (feq - f) / tau


def entropic_collide(f: np.ndarray, feq: np.ndarray, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Entropic collision; returns ``(f', α)`` for diagnostics."""
    post = np.array(f, dtype=float, order="C")
    alpha = _entropic_collide(post, np.array(feq, dtype=float, order="C"), tau, Workspace(post.shape))
    return post, alpha


# ---------------------------------------------------------------------------
# Multiple-relaxation-time collision (d'Humières; Lallemand & Luo 2000)
# ---------------------------------------------------------------------------

#: Gram–Schmidt moment basis for the D2Q9 velocity ordering of
#: :mod:`repro.lbm.lattice`: (ρ, e, ε, j_x, q_x, j_y, q_y, p_xx, p_xy).
MRT_MATRIX = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1, 1],
        [-4, -1, -1, -1, -1, 2, 2, 2, 2],
        [4, -2, -2, -2, -2, 1, 1, 1, 1],
        [0, 1, 0, -1, 0, 1, -1, -1, 1],
        [0, -2, 0, 2, 0, 1, -1, -1, 1],
        [0, 0, 1, 0, -1, 1, 1, -1, -1],
        [0, 0, -2, 0, 2, 1, 1, -1, -1],
        [0, 1, -1, 1, -1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, -1, 1, -1],
    ],
    dtype=float,
)

_MRT_INVERSE = np.linalg.inv(MRT_MATRIX)


def _mrt_equilibrium_moments(rho: np.ndarray, jx: np.ndarray, jy: np.ndarray) -> np.ndarray:
    """Equilibrium moments of the Lallemand–Luo model (shape (9, n, n))."""
    jsq = (jx * jx + jy * jy) / np.maximum(rho, 1e-15)
    return np.stack(
        [
            rho,
            -2.0 * rho + 3.0 * jsq,
            rho - 3.0 * jsq,
            jx,
            -jx,
            jy,
            -jy,
            (jx * jx - jy * jy) / np.maximum(rho, 1e-15),
            jx * jy / np.maximum(rho, 1e-15),
        ]
    )


def mrt_collide(
    f: np.ndarray,
    tau: float,
    s_e: float = 1.1,
    s_eps: float = 1.1,
    s_q: float = 1.2,
) -> np.ndarray:
    """Multiple-relaxation-time collision.

    The stress moments ``p_xx``/``p_xy`` relax at ``1/τ`` (setting the
    shear viscosity exactly as in BGK); the non-hydrodynamic moments
    relax at tunable rates ``s_e``/``s_eps``/``s_q``, which damps the
    ghost modes that destabilise BGK near ``τ → 1/2``.  Conserved moments
    (ρ, j) have rate 0.  With all rates set to ``1/τ`` MRT reduces to BGK
    exactly.
    """
    from .lattice import VELOCITIES

    s_nu = 1.0 / tau
    rates = np.array([0.0, s_e, s_eps, 0.0, s_q, 0.0, s_q, s_nu, s_nu])

    rho = f.sum(axis=0)
    jx = np.tensordot(VELOCITIES[:, 0].astype(float), f, axes=(0, 0))
    jy = np.tensordot(VELOCITIES[:, 1].astype(float), f, axes=(0, 0))

    m = np.tensordot(MRT_MATRIX, f, axes=(1, 0))
    m_eq = _mrt_equilibrium_moments(rho, jx, jy)
    m -= rates[:, None, None] * (m - m_eq)
    return np.tensordot(_MRT_INVERSE, m, axes=(1, 0))
