"""The in-place LBM step against the allocating kernel it replaced.

The reference below is the step as it was before the solver worked in a
workspace: ``np.tensordot`` moments, the loop-form entropic equilibrium,
a Newton iteration that re-evaluates ``H(f)`` over every cell on every
pass, and ``np.roll`` streaming.  The solver must reproduce it bit for
bit — populations and ``last_alpha`` — including where the positivity
bound ``α_max`` binds and where Newton runs on the compacted tail of
still-moving cells.  A steady step must also allocate nothing
population-sized and take next to no page faults.
"""

import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from repro.data import band_limited_vorticity
from repro.lbm import (
    Q,
    VELOCITIES,
    LBMSolver2D,
    UnitSystem,
    bgk_collide,
    entropic_collide,
    entropic_equilibrium,
    h_function,
    mrt_collide,
    polynomial_equilibrium,
    solve_alpha,
)
from repro.lbm import collision
from repro.lbm.lattice import WEIGHTS
from repro.ns import velocity_from_vorticity

_W = WEIGHTS[:, None, None]


# ---------------------------------------------------------------------------
# reference kernel (the allocating step, kept verbatim)
# ---------------------------------------------------------------------------


def _ref_macroscopics(f):
    rho = f.sum(axis=0)
    momentum = np.tensordot(VELOCITIES.astype(float).T, f, axes=(1, 0))
    return rho, momentum / rho


def _ref_entropic_equilibrium(rho, u):
    feq = np.empty((Q,) + rho.shape, dtype=float)
    root = np.sqrt(1.0 + 3.0 * u * u)
    front = 2.0 - root
    ratio = (2.0 * u + root) / (1.0 - u)
    base = rho * front[0] * front[1]
    for i in range(Q):
        cx, cy = VELOCITIES[i]
        term = base.copy()
        if cx:
            term = term * (ratio[0] if cx > 0 else 1.0 / ratio[0])
        if cy:
            term = term * (ratio[1] if cy > 0 else 1.0 / ratio[1])
        feq[i] = WEIGHTS[i] * term
    return feq


def _ref_h_and_derivative(f, delta, alpha):
    fa = f + alpha[None] * delta
    fa = np.maximum(fa, 1e-15)
    log_term = np.log(fa / _W)
    g = (fa * log_term).sum(axis=0) - (np.maximum(f, 1e-15) * np.log(np.maximum(f, 1e-15) / _W)).sum(axis=0)
    gp = (delta * (log_term + 1.0)).sum(axis=0)
    return g, gp


def _ref_alpha_max(f, feq):
    delta = feq - f
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(delta < 0, -f / np.where(delta < 0, delta, -1.0), np.inf)
    return 0.999 * ratios.min(axis=0)


def _ref_solve_alpha(f, feq, tol=1e-10, max_iter=20, alpha_init=2.0):
    delta = feq - f
    alpha = np.full(f.shape[1:], float(alpha_init))
    alpha_max = _ref_alpha_max(f, feq)
    alpha = np.minimum(alpha, np.where(np.isfinite(alpha_max), alpha_max, alpha))
    dev = np.abs(delta).max(axis=0) / np.maximum(np.abs(feq).max(axis=0), 1e-15)
    active = dev > 1e-12
    lo = 1.0 + 1e-9
    hi = np.where(np.isfinite(alpha_max), np.maximum(alpha_max, lo), 4.0)
    for _ in range(max_iter):
        g, gp = _ref_h_and_derivative(f, delta, alpha)
        step = g / np.where(np.abs(gp) > 1e-15, gp, 1.0)
        new_alpha = np.clip(alpha - step, lo, hi)
        converged = np.abs(g) < tol
        update = active & ~converged
        alpha = np.where(update, new_alpha, alpha)
        if not update.any():
            break
    return np.where(active, alpha, 2.0)


def _ref_entropic_collide(f, feq, tau):
    beta = 1.0 / (2.0 * tau)
    alpha = _ref_solve_alpha(f, feq)
    return f + (alpha * beta)[None] * (feq - f), alpha


def _ref_stream(f):
    for i in range(1, Q):
        cx, cy = VELOCITIES[i]
        f[i] = np.roll(f[i], shift=(cx, cy), axis=(0, 1))


def _ref_run(f, tau, collision_model, steps):
    """``steps`` reference steps from ``f``: ``(f, last α, cells where α_max < 2)``."""
    f = f.copy()
    alpha, bound = None, 0
    for _ in range(steps):
        if collision_model == "mrt":
            f = mrt_collide(f, tau)
        else:
            rho, u = _ref_macroscopics(f)
            if collision_model == "bgk":
                f = bgk_collide(f, polynomial_equilibrium(rho, u), tau)
            else:
                feq = _ref_entropic_equilibrium(rho, u)
                bound += int(np.count_nonzero(_ref_alpha_max(f, feq) < 2.0))
                f, alpha = _ref_entropic_collide(f, feq, tau)
        _ref_stream(f)
    return f, alpha, bound


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def _solver(n, reynolds, collision_model="entropic", u0_lattice=0.05, k_peak=4.0, seed=3):
    units = UnitSystem(n=n, reynolds=reynolds, u0_lattice=u0_lattice)
    solver = LBMSolver2D.from_units(units, collision=collision_model)
    omega = band_limited_vorticity(n, np.random.default_rng(seed), k_peak=k_peak)
    solver.initialize(units.to_lattice_velocity(velocity_from_vorticity(omega)))
    return solver


@pytest.fixture
def compacted_sums(monkeypatch):
    """Counts the row sums of the compacted Newton tail (the dense
    iteration sums with numpy's reduction instead)."""
    calls = []
    original = collision._sum_rows

    def spy(t, out):
        calls.append(t.shape[1])
        return original(t, out)

    monkeypatch.setattr(collision, "_sum_rows", spy)
    return calls


class TestMatchesReferenceKernel:
    @pytest.mark.parametrize("n", [32, 64])
    def test_entropic_re800_bitwise(self, n, compacted_sums):
        solver = _solver(n, 800.0)
        f_ref, alpha_ref, _ = _ref_run(solver.f, solver.tau, "entropic", 200)
        solver.step(200)
        assert np.array_equal(solver.f, f_ref)
        assert np.array_equal(solver.last_alpha, alpha_ref)
        # The compacted tail ran, on fewer than half the cells.
        assert compacted_sums and max(compacted_sums) < n * n / 2

    def test_alpha_max_binds_bitwise(self, compacted_sums):
        """High Re on a coarse grid (the collision ablation's regime):
        the positivity bound caps α below 2 in some cells."""
        solver = _solver(32, 30000.0, u0_lattice=0.1, k_peak=8.0)
        f_ref, alpha_ref, bound = _ref_run(solver.f, solver.tau, "entropic", 200)
        solver.step(200)
        assert bound > 0
        assert np.array_equal(solver.f, f_ref)
        assert np.array_equal(solver.last_alpha, alpha_ref)
        assert solver.last_alpha.min() < 1.999
        assert compacted_sums

    @pytest.mark.parametrize("collision_model", ["bgk", "mrt"])
    def test_bgk_and_mrt_keep_their_bits(self, collision_model):
        solver = _solver(32, 800.0, collision_model)
        f_ref, _, _ = _ref_run(solver.f, solver.tau, collision_model, 50)
        solver.step(50)
        assert np.array_equal(solver.f, f_ref)

    def test_public_functions_match_reference(self):
        solver = _solver(32, 30000.0, u0_lattice=0.1, k_peak=8.0)
        solver.step(60)
        f = solver.f.copy()
        rho, u = solver.macroscopics()
        rho_ref, u_ref = _ref_macroscopics(f)
        assert np.array_equal(rho, rho_ref) and np.array_equal(u, u_ref)
        feq = _ref_entropic_equilibrium(rho, u)
        assert np.array_equal(entropic_equilibrium(rho, u), feq)
        assert np.array_equal(solve_alpha(f, feq), _ref_solve_alpha(f, feq))
        post, alpha = entropic_collide(f, feq, solver.tau)
        post_ref, alpha_ref = _ref_entropic_collide(f, feq, solver.tau)
        assert np.array_equal(post, post_ref) and np.array_equal(alpha, alpha_ref)
        assert np.array_equal(f, solver.f)  # inputs untouched
        with np.errstate(divide="ignore", invalid="ignore"):
            h_ref = np.where(f > 0, f * np.log(f / _W), 0.0).sum(axis=0)
        assert np.array_equal(h_function(f), h_ref)
        g = f.copy()
        g[3, 0, 0], g[5, 1, 1] = 0.0, -1e-3  # non-positive populations add nothing
        with np.errstate(divide="ignore", invalid="ignore"):
            h_ref = np.where(g > 0, g * np.log(g / _W), 0.0).sum(axis=0)
        assert np.array_equal(h_function(g), h_ref)


class TestSteadyStepAllocations:
    def test_traced_peak_below_one_population_array(self):
        solver = _solver(64, 800.0)
        solver.step(5)
        tracemalloc.start()
        try:
            solver.step(20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured: ~215 KB (cell-sized temporaries and ufunc buffers).
        assert peak < solver.f.nbytes

    def test_fresh_process_takes_few_page_faults(self):
        # The allocating step took ~600-1000 minor faults per step at 64²
        # in a fresh process (its 295 KB temporaries crossed glibc's mmap
        # threshold); the in-place step measured < 1.
        script = textwrap.dedent(
            """
            import resource
            import numpy as np
            from repro.data import band_limited_vorticity
            from repro.lbm import LBMSolver2D, UnitSystem
            from repro.ns import velocity_from_vorticity

            units = UnitSystem(n=64, reynolds=800.0, u0_lattice=0.05)
            solver = LBMSolver2D.from_units(units)
            omega = band_limited_vorticity(64, np.random.default_rng(3), k_peak=4.0)
            solver.initialize(units.to_lattice_velocity(velocity_from_vorticity(omega)))
            solver.step(5)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            solver.step(100)
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 100)
            """
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             check=True, timeout=300)
        assert float(out.stdout.strip().splitlines()[-1]) < 10.0


class TestLastAlpha:
    def test_kept_alpha_does_not_change_on_next_step(self):
        solver = _solver(32, 30000.0, u0_lattice=0.1, k_peak=8.0)
        solver.step(10)
        kept = solver.last_alpha
        snapshot = kept.copy()
        solver.step(3)
        assert np.array_equal(kept, snapshot)
        assert solver.last_alpha is not kept
        assert not np.shares_memory(solver.last_alpha, kept)
