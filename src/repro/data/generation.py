"""Dataset generation pipeline (paper Sec. III).

For each sample: draw a random initial condition, warm it up for
``warmup`` convective times so sharp features vanish, reset the clock,
then record velocity and vorticity snapshots every ``sample_interval``
convective times over ``duration`` convective times.  The paper's setup
is 5000 samples on a 256² grid with snapshots every ``0.005 t_c`` up to
``t_c`` (201 snapshots); all of that is configurable here, and samples
fan out over processes with :func:`repro.parallel.parallel_map`.

The solver can be the entropic lattice Boltzmann model (paper-faithful),
or either Navier–Stokes solver (faster on small grids, useful for tests
and the cross-solver experiments).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .. import obs
from ..lbm import LBMSolver2D, UnitSystem
from ..ns import (
    CompositeForcing,
    FDNSSolver2D,
    KolmogorovForcing,
    LinearDrag,
    RingForcing,
    SpectralNSSolver2D,
    rms_velocity,
    velocity_from_vorticity,
    vorticity_from_velocity,
)
from ..parallel import parallel_map, task_seeds
from ..utils.rng import as_generator
from .initial_conditions import band_limited_vorticity, uniform_random_velocity

__all__ = ["DataGenConfig", "TrajectorySample", "generate_sample", "generate_dataset"]


@dataclass(frozen=True)
class DataGenConfig:
    """Configuration of the trajectory generator.

    Times (``warmup``, ``duration``, ``sample_interval``) are in units of
    the convective time ``t_c = L / U0``.  Defaults are the paper's
    protocol scaled down to a CPU-friendly grid; set ``n=256``,
    ``reynolds=7500`` and ``n_samples=5000`` to match the paper exactly.
    """

    n: int = 64
    reynolds: float = 1000.0
    n_samples: int = 10
    warmup: float = 0.5
    duration: float = 1.0
    sample_interval: float = 0.005
    solver: str = "lbm"  # "lbm" | "spectral" | "fd"
    collision: str = "entropic"
    ic: str = "uniform"  # "uniform" | "band"
    k_peak: float = 6.0
    u0_lattice: float = 0.05
    length: float = 2.0 * np.pi
    seed: int = 0
    # Forced (non-decaying) turbulence — paper Sec. I extension.  Only
    # supported by the Navier-Stokes solvers.
    forcing: str = "none"  # "none" | "kolmogorov" | "ring"
    forcing_amplitude: float = 1.0
    forcing_k: float = 4.0
    forcing_drag: float = 0.1

    def __post_init__(self) -> None:
        if self.solver not in ("lbm", "spectral", "fd"):
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.ic not in ("uniform", "band"):
            raise ValueError(f"unknown initial condition {self.ic!r}")
        if self.sample_interval <= 0 or self.duration < 0 or self.warmup < 0:
            raise ValueError("times must be positive")
        if self.forcing not in ("none", "kolmogorov", "ring"):
            raise ValueError(f"unknown forcing {self.forcing!r}")
        if self.forcing != "none" and self.solver == "lbm":
            raise ValueError("forcing is only supported by the Navier-Stokes solvers")

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def n_snapshots(self) -> int:
        return int(round(self.duration / self.sample_interval)) + 1

    @property
    def convective_time(self) -> float:
        """``t_c`` in physical units (U0 is normalised to 1)."""
        return self.length


@dataclass
class TrajectorySample:
    """One generated trajectory (physical/convective units).

    Attributes
    ----------
    times:
        Snapshot times in units of ``t_c``, starting at 0 (post warm-up).
    vorticity:
        ``(T, n, n)``.
    velocity:
        ``(T, 2, n, n)``.
    reynolds:
        Effective Reynolds number at t = 0 (post warm-up RMS velocity).
    sample_id:
        Index within the generated set.
    """

    times: np.ndarray
    vorticity: np.ndarray
    velocity: np.ndarray
    reynolds: float
    sample_id: int = 0

    @property
    def n_snapshots(self) -> int:
        return self.times.shape[0]

    @property
    def grid_size(self) -> int:
        return self.vorticity.shape[-1]


def _initial_vorticity(config: DataGenConfig, rng: np.random.Generator) -> np.ndarray:
    if config.ic == "uniform":
        u = uniform_random_velocity(config.n, rng, u0=1.0, length=config.length)
        return vorticity_from_velocity(u, config.length)
    return band_limited_vorticity(
        config.n, rng, k_peak=config.k_peak, u0=1.0, length=config.length
    )


def _generate_with_lbm(config: DataGenConfig, rng: np.random.Generator, sample_id: int) -> TrajectorySample:
    units = UnitSystem(
        n=config.n,
        reynolds=config.reynolds,
        length=config.length,
        u0=1.0,
        u0_lattice=config.u0_lattice,
    )
    solver = LBMSolver2D.from_units(units, collision=config.collision)
    omega0 = _initial_vorticity(config, rng)
    u_phys = velocity_from_vorticity(omega0, config.length)
    solver.initialize(units.to_lattice_velocity(u_phys))

    t_c = units.convective_time
    warm_steps = units.steps_for_time(config.warmup * t_c)
    with obs.span("datagen.warmup", steps=warm_steps):
        solver.step(warm_steps)

    interval_steps = units.steps_for_time(config.sample_interval * t_c)
    if interval_steps < 1:
        raise ValueError(
            f"sample_interval {config.sample_interval} t_c is below one lattice step "
            f"({units.steps_per_convective_time:.0f} steps per t_c); refine the grid "
            "or lower u0_lattice"
        )

    n_snap = config.n_snapshots
    times = np.arange(n_snap) * (interval_steps * units.time_scale) / t_c
    vorticity = np.empty((n_snap, config.n, config.n))
    velocity = np.empty((n_snap, 2, config.n, config.n))
    with obs.span("datagen.sampling", snapshots=n_snap):
        for i in range(n_snap):
            if i > 0:
                solver.step(interval_steps)
            u_lat = solver.velocity
            u = units.to_physical_velocity(u_lat)
            velocity[i] = u
            vorticity[i] = vorticity_from_velocity(u, config.length)
    reynolds = rms_velocity(velocity[0]) * config.length / units.viscosity_physical
    return TrajectorySample(times, vorticity, velocity, reynolds, sample_id)


def _build_forcing(config: DataGenConfig, rng: np.random.Generator):
    if config.forcing == "none":
        return None
    if config.forcing == "kolmogorov":
        return KolmogorovForcing(
            config.n, amplitude=config.forcing_amplitude,
            k=int(config.forcing_k), length=config.length,
        )
    ring = RingForcing(
        config.n, amplitude=config.forcing_amplitude, k_peak=config.forcing_k,
        length=config.length, rng=rng,
    )
    if config.forcing_drag > 0:
        return CompositeForcing(ring, LinearDrag(config.forcing_drag))
    return ring


def _generate_with_ns(config: DataGenConfig, rng: np.random.Generator, sample_id: int) -> TrajectorySample:
    viscosity = config.length / config.reynolds  # U0 = 1
    cls = SpectralNSSolver2D if config.solver == "spectral" else FDNSSolver2D
    solver = cls(config.n, viscosity, length=config.length, forcing=_build_forcing(config, rng))
    solver.set_vorticity(_initial_vorticity(config, rng))

    t_c = config.convective_time
    with obs.span("datagen.warmup", duration_tc=config.warmup):
        solver.advance(config.warmup * t_c)
    solver.time = 0.0

    n_snap = config.n_snapshots
    times = np.arange(n_snap) * config.sample_interval
    vorticity = np.empty((n_snap, config.n, config.n))
    velocity = np.empty((n_snap, 2, config.n, config.n))
    with obs.span("datagen.sampling", snapshots=n_snap):
        for i in range(n_snap):
            if i > 0:
                solver.advance(config.sample_interval * t_c)
            vorticity[i] = solver.vorticity
            velocity[i] = solver.velocity
    reynolds = rms_velocity(velocity[0]) * config.length / viscosity
    return TrajectorySample(times, vorticity, velocity, reynolds, sample_id)


def generate_sample(config: DataGenConfig, rng=None, sample_id: int = 0) -> TrajectorySample:
    """Generate one trajectory according to ``config``.

    Each sample is one ``datagen.sample`` span with ``datagen.warmup``
    and ``datagen.sampling`` children.  When the parent traces, samples
    generated in pool workers reach its trace too: the pool relays each
    worker's spans under their ``parallel.task`` span
    (:func:`repro.parallel.relay.merge_traces`).
    """
    rng = as_generator(rng)
    with obs.span(
        "datagen.sample", sample_id=sample_id, solver=config.solver, grid=config.n
    ):
        if config.solver == "lbm":
            return _generate_with_lbm(config, rng, sample_id)
        return _generate_with_ns(config, rng, sample_id)


def _worker(args: tuple[DataGenConfig, int, int]) -> TrajectorySample:
    config, entropy, sample_id = args
    return generate_sample(config, np.random.default_rng(entropy), sample_id)


def generate_dataset(config: DataGenConfig, n_workers: int | None = 1) -> list[TrajectorySample]:
    """Generate ``config.n_samples`` independent trajectories.

    Each sample gets its own RNG stream spawned from ``config.seed``
    (:func:`repro.parallel.task_seeds`), so the result is identical for
    any worker count.
    """
    jobs = [
        (config, entropy, i)
        for i, entropy in enumerate(task_seeds(config.seed, config.n_samples))
    ]
    return parallel_map(_worker, jobs, n_workers=n_workers)
