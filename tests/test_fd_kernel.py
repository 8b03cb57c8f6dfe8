"""The workspace FD step against the allocating solver it replaced.

The references below are the solvers as they were before the
finite-difference step worked in a workspace and ``repro.ns`` moved to
``scipy.fft``: ``np.pad`` stencils, a fresh Poisson solve in
``stable_dt`` (through ``velocity``), in every RK stage and in
``velocity``, and ``np.fft`` transforms.  The solvers must reproduce
them bit for bit through ``advance()`` — vorticity, time and velocity —
with adaptive and fixed steps, with forcing, and across state changes
that must invalidate the cached streamfunction.  A steady FD step must
also allocate no field-sized array beyond the FFT outputs of its
Poisson solves.
"""

import tracemalloc

import numpy as np
import pytest

from repro.data import band_limited_vorticity
from repro.ns import (
    BurgersSolver1D,
    CompositeForcing,
    FDNSSolver2D,
    KolmogorovForcing,
    LinearDrag,
    NSSolverBase,
    RingForcing,
    SpectralNSSolver2D,
    random_initial_condition_1d,
    velocity_from_vorticity,
)
from repro.ns.fields import irfft2

# ---------------------------------------------------------------------------
# reference solvers (the allocating forms, kept verbatim)
# ---------------------------------------------------------------------------


def _ref_neighbours(f):
    P = np.pad(f, 1, mode="wrap")
    return (P[2:, 1:-1], P[:-2, 1:-1], P[1:-1, 2:], P[1:-1, :-2],
            P[2:, 2:], P[:-2, 2:], P[2:, :-2], P[:-2, :-2])


def _ref_arakawa_jacobian(p, w, h):
    pE, pW, pN, pS, pNE, pNW, pSE, pSW = _ref_neighbours(p)
    wE, wW, wN, wS, wNE, wNW, wSE, wSW = _ref_neighbours(w)
    j1 = (pE - pW) * (wN - wS) - (pN - pS) * (wE - wW)
    j2 = pE * (wNE - wSE) - pW * (wNW - wSW) - pN * (wNE - wNW) + pS * (wSE - wSW)
    j3 = wN * (pNE - pNW) - wS * (pSE - pSW) - wE * (pNE - pSE) + wW * (pNW - pSW)
    return (j1 + j2 + j3) / (12.0 * h * h)


def _ref_laplacian(f, h):
    P = np.pad(f, 1, mode="wrap")
    return (P[2:, 1:-1] + P[:-2, 1:-1] + P[1:-1, 2:] + P[1:-1, :-2] - 4.0 * f) / (h * h)


class _RefFD(NSSolverBase):
    def __init__(self, n, viscosity, length=2.0 * np.pi, dt=None, forcing=None):
        super().__init__(n, viscosity, length, dt)
        self.forcing = forcing
        self.h = self.length / self.n
        k1 = np.fft.fftfreq(n, d=1.0 / n)
        k2 = np.fft.rfftfreq(n, d=1.0 / n)
        lam_x = (2.0 * np.cos(2.0 * np.pi * k1 / n) - 2.0) / (self.h * self.h)
        lam_y = (2.0 * np.cos(2.0 * np.pi * k2 / n) - 2.0) / (self.h * self.h)
        lam = lam_x[:, None] + lam_y[None, :]
        lam[0, 0] = 1.0
        self._inv_lam = 1.0 / lam
        self._inv_lam[0, 0] = 0.0

    def streamfunction(self, omega=None):
        w = self._omega if omega is None else omega
        psi_hat = -np.fft.rfft2(w) * self._inv_lam
        return np.fft.irfft2(psi_hat, s=(self.n, self.n))

    @property
    def velocity(self):
        P = np.pad(self.streamfunction(), 1, mode="wrap")
        ux = (P[1:-1, 2:] - P[1:-1, :-2]) / (2.0 * self.h)
        uy = -(P[2:, 1:-1] - P[:-2, 1:-1]) / (2.0 * self.h)
        return np.stack([ux, uy])

    def _rhs(self, w):
        psi = self.streamfunction(w)
        rhs = _ref_arakawa_jacobian(psi, w, self.h) + self.viscosity * _ref_laplacian(w, self.h)
        if self.forcing is not None:
            rhs = rhs + self.forcing(w, self.time)
        return rhs

    def step(self):
        dt = self.dt if self.dt is not None else self.stable_dt()
        w = self._omega
        w1 = w + dt * self._rhs(w)
        w2 = 0.75 * w + 0.25 * (w1 + dt * self._rhs(w1))
        self._omega = (w + 2.0 * (w2 + dt * self._rhs(w2))) / 3.0
        self.time += dt


class _RefSpectral(SpectralNSSolver2D):
    def _on_state_change(self):
        self._omega_hat = np.fft.rfft2(self._omega)

    def _sync_real(self):
        self._omega = np.fft.irfft2(self._omega_hat, s=(self.n, self.n))

    def _nonlinear(self, w_hat):
        psi_hat = w_hat * self._inv_k2
        ux = np.fft.irfft2(1j * self._ky * psi_hat, s=(self.n, self.n))
        uy = np.fft.irfft2(-1j * self._kx * psi_hat, s=(self.n, self.n))
        wx = np.fft.irfft2(1j * self._kx * w_hat, s=(self.n, self.n))
        wy = np.fft.irfft2(1j * self._ky * w_hat, s=(self.n, self.n))
        adv_hat = np.fft.rfft2(ux * wx + uy * wy)
        if self.dealias:
            adv_hat *= self._mask
        tendency = -adv_hat
        if self.forcing is not None:
            omega = np.fft.irfft2(w_hat, s=(self.n, self.n))
            tendency = tendency + np.fft.rfft2(self.forcing(omega, self.time))
        return tendency


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

NU = 2e-3


def _omega0(n, seed=1):
    return band_limited_vorticity(n, np.random.default_rng(seed), k_peak=4.0)


def _forcing(n):
    return CompositeForcing(KolmogorovForcing(n, amplitude=0.5, k=2), LinearDrag(0.1))


def _assert_same(solver, ref):
    assert solver.time == ref.time
    assert np.array_equal(solver.vorticity, ref.vorticity)
    assert np.array_equal(solver.velocity, ref.velocity)


def _march(solver, ref, duration=0.05, windows=3):
    """``windows`` advances, each followed by a velocity snapshot (the
    hybrid PDE window's pattern)."""
    for _ in range(windows):
        solver.advance(duration)
        ref.advance(duration)
        _assert_same(solver, ref)


class TestFDMatchesReference:
    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("dt", [None, 2e-3])
    def test_advance_bitwise(self, n, dt):
        solver, ref = FDNSSolver2D(n, NU, dt=dt), _RefFD(n, NU, dt=dt)
        solver.set_vorticity(_omega0(n))
        ref.set_vorticity(_omega0(n))
        _assert_same(solver, ref)
        _march(solver, ref)

    @pytest.mark.parametrize("n", [32, 64])
    def test_forced_bitwise(self, n):
        solver = FDNSSolver2D(n, NU, forcing=_forcing(n))
        ref = _RefFD(n, NU, forcing=_forcing(n))
        solver.set_vorticity(_omega0(n))
        ref.set_vorticity(_omega0(n))
        _march(solver, ref)

    @pytest.mark.parametrize("n", [32, 64])
    def test_state_changes_between_advances(self, n):
        """``set_velocity``/``set_vorticity`` must drop the cached ψ, also
        when the new state arrives right after a ``velocity`` read."""
        solver, ref = FDNSSolver2D(n, NU), _RefFD(n, NU)
        for s in (solver, ref):
            s.set_velocity(velocity_from_vorticity(_omega0(n)))
        _march(solver, ref, windows=2)
        for seed in (2, 3):
            u = velocity_from_vorticity(_omega0(n, seed))
            solver.set_velocity(u)
            ref.set_velocity(u)
            _assert_same(solver, ref)
            _march(solver, ref, windows=2)
            solver.set_vorticity(_omega0(n, seed + 10), reset_time=True)
            ref.set_vorticity(_omega0(n, seed + 10), reset_time=True)
            assert solver.stable_dt() == ref.stable_dt()
            _march(solver, ref, windows=2)

    def test_streamfunction_and_step(self):
        solver, ref = FDNSSolver2D(32, NU), _RefFD(32, NU)
        for s in (solver, ref):
            s.set_vorticity(_omega0(32))
        w = _omega0(32, 7)
        assert np.array_equal(solver.streamfunction(w), ref.streamfunction(w))
        for _ in range(3):
            assert np.array_equal(solver.streamfunction(), ref.streamfunction())
            solver.step()
            ref.step()
            _assert_same(solver, ref)

    def test_odd_grid_bitwise(self):
        solver, ref = FDNSSolver2D(33, NU), _RefFD(33, NU)
        for s in (solver, ref):
            s.set_vorticity(_omega0(33))
        _march(solver, ref, windows=2)


class TestSpectralMatchesReference:
    @pytest.mark.parametrize("n", [32, 48, 64])
    @pytest.mark.parametrize("scheme", ["ifrk4", "rk4"])
    def test_advance_bitwise(self, n, scheme):
        solver = SpectralNSSolver2D(n, NU, scheme=scheme)
        ref = _RefSpectral(n, NU, scheme=scheme)
        for s in (solver, ref):
            s.set_velocity(velocity_from_vorticity(_omega0(n)))
        _march(solver, ref, windows=2)

    def test_forced_bitwise(self):
        n = 32
        solver = SpectralNSSolver2D(n, NU, forcing=_forcing(n))
        ref = _RefSpectral(n, NU, forcing=_forcing(n))
        for s in (solver, ref):
            s.set_vorticity(_omega0(n))
        _march(solver, ref, windows=2)


class TestTransformsMatchNumpy:
    @pytest.mark.parametrize("n", [16, 24, 32, 33, 48, 64, 100, 128])
    def test_irfft2_any_grid(self, n):
        rng = np.random.default_rng(n)
        a_hat = np.fft.rfft2(rng.standard_normal((n, n))) * rng.standard_normal((n, n // 2 + 1))
        assert np.array_equal(irfft2(a_hat, n), np.fft.irfft2(a_hat, s=(n, n)))

    def test_ring_forcing(self):
        new, old = RingForcing(32, rng=5), RingForcing(32, rng=5)
        field = new(None, 0.0)
        phases = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, size=old._mask.shape)
        f_hat = old._mask * np.exp(1j * phases)
        f_hat[16, :] = 0.0
        f_hat[:, -1] = 0.0
        ref = np.fft.irfft2(f_hat, s=(32, 32))
        ref = ref * (old.amplitude / max(float(np.sqrt(np.mean(ref**2))), 1e-30))
        assert np.array_equal(field, ref)

    @pytest.mark.parametrize("n", [64, 100])
    def test_burgers(self, n):
        u0 = random_initial_condition_1d(n, np.random.default_rng(4))
        solver = BurgersSolver1D(n, 0.05)
        solver.set_state(u0)
        u_hat = np.fft.rfft(np.asarray(u0, dtype=float))
        assert np.array_equal(solver._u_hat, u_hat)
        assert np.array_equal(solver.u, np.fft.irfft(u_hat, n=n))
        u = np.fft.irfft(u_hat, n=n)
        flux_ref = np.fft.rfft(0.5 * u * u) * solver._mask
        assert np.array_equal(solver._nonlinear(u_hat), -1j * solver._k * flux_ref)


class TestSteadyStepAllocations:
    def test_traced_peak_below_five_fields(self):
        n = 64
        solver = FDNSSolver2D(n, NU, dt=1e-3)
        solver.set_vorticity(_omega0(n))
        for _ in range(3):
            solver.step()
        tracemalloc.start()
        try:
            for _ in range(20):
                solver.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The allocating step measured ~425 KB; the workspace step allocates
        # only the FFT outputs of one Poisson solve at a time.
        assert peak < 5 * n * n * 8
