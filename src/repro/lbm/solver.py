"""D2Q9 lattice Boltzmann solver for 2-D decaying turbulence.

Fully vectorised stream-and-collide on a periodic grid.  Three collision
models: plain BGK, MRT and the entropic model (adaptive-α stabiliser) used
to generate the paper's dataset.  The entropic step allocates no
population-sized array: moments, equilibrium, α solve and collision work
in place in a :class:`~repro.lbm.collision.Workspace`, and streaming
copies each population once into a spare buffer that is then swapped
with ``f``.  All state is in lattice units; use
:class:`repro.lbm.UnitSystem` to convert to the physical/convective units
the rest of the repo works in.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs import hooks as _obs_hooks
from .collision import Workspace, _entropic_collide, bgk_collide, mrt_collide
from .equilibrium import _entropic_equilibrium, entropic_equilibrium, polynomial_equilibrium
from .lattice import CS2, Q, VELOCITIES
from .units import UnitSystem

__all__ = ["LBMSolver2D"]

#: ``VELOCITIES.astype(float).T`` in the layout ``np.tensordot`` hands to
#: BLAS, so ``np.dot`` into a buffer gives the momenta it gave.
_VELOCITIES_T = VELOCITIES.astype(float).T


def _moments(f: np.ndarray, rho: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Density and velocity of ``f`` written into ``rho`` (n, n) and ``u`` (2, n, n)."""
    np.sum(f, axis=0, out=rho)
    np.dot(_VELOCITIES_T, f.reshape(Q, -1), out=u.reshape(2, -1))
    u /= rho
    return rho, u


def _shift_pieces(c: int) -> list[tuple[slice, slice]]:
    """``(destination, source)`` slices of a periodic shift by ``c`` ∈ {−1, 0, 1}."""
    if c == 0:
        return [(slice(None), slice(None))]
    if c == 1:
        return [(slice(1, None), slice(None, -1)), (slice(0, 1), slice(-1, None))]
    return [(slice(None, -1), slice(1, None)), (slice(-1, None), slice(0, 1))]


#: One streaming step as block copies: population ``i`` moves by ``c_i``
#: (``np.roll(f[i], c_i, axis=(0, 1))``) in at most four slice copies.
_STREAM = [
    ((i, dx, dy), (i, sx, sy))
    for i, (cx, cy) in enumerate(VELOCITIES)
    for dx, sx in _shift_pieces(cx)
    for dy, sy in _shift_pieces(cy)
]


class LBMSolver2D:
    """Lattice Boltzmann integrator (D2Q9, periodic).

    Parameters
    ----------
    n:
        Grid points per side.
    tau:
        Relaxation time; ``ν_lat = c_s² (τ − 1/2)`` must be positive.
    collision:
        ``"entropic"`` (default), ``"mrt"`` or ``"bgk"``.

    ``f`` is a buffer the solver reuses: a step updates it in place and
    swaps it with its spare buffer, so copy it to keep a snapshot.
    ``last_alpha`` is a fresh array every step.
    """

    def __init__(self, n: int, tau: float, collision: str = "entropic"):
        if tau <= 0.5:
            raise ValueError("tau must exceed 1/2 for positive viscosity")
        if collision not in ("entropic", "mrt", "bgk"):
            raise ValueError(f"unknown collision model {collision!r}")
        self.n = int(n)
        self.tau = float(tau)
        self.collision = collision
        self._equilibrium = (
            entropic_equilibrium if collision == "entropic" else polynomial_equilibrium
        )
        self.f = np.zeros((Q, n, n))
        # The streaming target, swapped with ``f`` every step; it holds
        # ``f_eq`` during an entropic collision.
        self._spare = np.empty((Q, n, n))
        self._work = Workspace((Q, n, n)) if collision == "entropic" else None
        self.steps_taken = 0
        self.last_alpha: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_units(cls, units: UnitSystem, collision: str = "entropic") -> "LBMSolver2D":
        """Build a solver sized/relaxed according to a :class:`UnitSystem`."""
        return cls(units.n, units.tau, collision=collision)

    @property
    def viscosity(self) -> float:
        """Lattice kinematic viscosity."""
        return CS2 * (self.tau - 0.5)

    # ------------------------------------------------------------------
    # macroscopic state
    # ------------------------------------------------------------------
    def macroscopics(self) -> tuple[np.ndarray, np.ndarray]:
        """Density ``(n, n)`` and velocity ``(2, n, n)`` (lattice units)."""
        return _moments(self.f, np.empty((self.n, self.n)), np.empty((2, self.n, self.n)))

    @property
    def density(self) -> np.ndarray:
        return self.f.sum(axis=0)

    @property
    def velocity(self) -> np.ndarray:
        return self.macroscopics()[1]

    def initialize(self, u: np.ndarray, rho: np.ndarray | None = None) -> None:
        """Set populations to the equilibrium of ``(ρ, u)`` (lattice units)."""
        u = np.asarray(u, dtype=float)
        if u.shape != (2, self.n, self.n):
            raise ValueError(f"expected velocity shape {(2, self.n, self.n)}, got {u.shape}")
        if rho is None:
            rho = np.ones((self.n, self.n))
        self.f = self._equilibrium(np.asarray(rho, dtype=float), u)
        self.steps_taken = 0

    # ------------------------------------------------------------------
    # dynamics
    # ------------------------------------------------------------------
    def collide(self) -> None:
        if self.collision == "mrt":
            self.f = mrt_collide(self.f, self.tau)
        elif self.collision == "bgk":
            rho, u = self.macroscopics()
            self.f = bgk_collide(self.f, polynomial_equilibrium(rho, u), self.tau)
        else:
            # ρ, u and the equilibrium's temporaries live in scratch planes
            # the α solve overwrites only after f_eq is complete.
            scratch = self._work.scratch
            rho, u = _moments(self.f, scratch[0], scratch[1:3])
            feq = _entropic_equilibrium(rho, u, self._spare, scratch[3:])
            self.last_alpha = _entropic_collide(self.f, feq, self.tau, self._work)

    def stream(self) -> None:
        src, dst = self.f, self._spare
        for to, from_ in _STREAM:
            dst[to] = src[from_]
        self.f, self._spare = dst, src

    def step(self, n_steps: int = 1) -> None:
        """Advance ``n_steps`` collide–stream cycles."""
        # Single flag read per call — profiling costs nothing when off.
        profiling = _obs_hooks.PROFILING
        start = time.perf_counter() if profiling else 0.0
        for _ in range(n_steps):
            self.collide()
            self.stream()
            self.steps_taken += 1
        if profiling and n_steps:
            _obs_hooks.record_solver_advance(
                type(self).__name__, n_steps, time.perf_counter() - start
            )

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def mass(self) -> float:
        """Total mass (conserved to round-off)."""
        return float(self.f.sum())

    def momentum(self) -> np.ndarray:
        """Total momentum vector (conserved to round-off in periodic flow)."""
        return np.tensordot(VELOCITIES.astype(float).T, self.f, axes=(1, 0)).sum(axis=(1, 2))
