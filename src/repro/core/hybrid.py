"""Hybrid FNO–PDE driver (paper Sec. VI-C).

The hybrid scheme alternates between the trained FNO and a numerical PDE
solver: the FNO consumes its ``n_in``-snapshot window and emits ``n_out``
future snapshots; the PDE solver then restarts from the newest state and
integrates for ``n_in`` snapshot intervals, refilling the FNO window.
Because the solver state is vorticity, handing an FNO prediction to the
PDE solver implicitly projects it back onto the divergence-free manifold
— the mechanism behind the divergence plot of Fig. 8.

Three drivers share the :class:`RolloutRecord` output format so the
Fig. 8/9 benchmarks can overlay them directly:

* :func:`run_pure_pde` — the reference trajectory.
* :func:`run_pure_fno` — iterative FNO roll-out (blows up eventually).
* :class:`HybridFNOPDE` — the alternating scheme (stays bounded).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..analysis.statistics import (
    divergence_evolution,
    global_enstrophy_evolution,
    kinetic_energy_evolution,
)
from ..faults import injection as _faults
from ..faults.policy import DivergenceGuard
from ..nn import Module
from ..ns.base import NSSolverBase
from ..ns.fields import divergence, enstrophy, kinetic_energy, vorticity_from_velocity
from .config import HybridConfig
from .rollout import apply_channels, rollout_channels

__all__ = [
    "RolloutRecord",
    "HybridFNOPDE",
    "run_pure_fno",
    "run_pure_fno_batched",
    "run_pure_pde",
    "run_hybrid_batched",
]


@dataclass
class RolloutRecord:
    """A roll-out trajectory with per-snapshot provenance.

    ``times`` are in convective units; ``source[i]`` is ``"init"``,
    ``"fno"``, ``"pde"`` or ``"pde-fallback"`` depending on which
    component produced snapshot ``i`` (``"pde-fallback"`` marks a
    window where the divergence guard rejected the FNO prediction and
    the PDE solver filled in — see :class:`repro.faults.DivergenceGuard`).
    """

    times: np.ndarray
    velocity: np.ndarray  # (T, 2, n, n)
    source: list[str] = field(default_factory=list)
    length: float = 2.0 * np.pi

    @property
    def n_snapshots(self) -> int:
        return self.velocity.shape[0]

    @property
    def vorticity(self) -> np.ndarray:
        return np.stack(
            [vorticity_from_velocity(self.velocity[t], self.length) for t in range(self.n_snapshots)]
        )

    def diagnostics(self) -> dict[str, np.ndarray]:
        """Global curves of Fig. 8: kinetic energy, enstrophy, divergence."""
        omega = self.vorticity
        return {
            "times": self.times,
            "kinetic_energy": kinetic_energy_evolution(self.velocity),
            "enstrophy": np.array([enstrophy(omega[t]) for t in range(self.n_snapshots)]),
            "global_enstrophy": global_enstrophy_evolution(omega),
            "rms_divergence": divergence_evolution(self.velocity, self.length),
        }


def _emit_rollout_diagnostics(u: np.ndarray, length: float, t: float, phase: str) -> None:
    """Physics gauges + trace event for the newest roll-out snapshot.

    Only called behind ``obs.enabled()`` — the divergence/enstrophy FFTs
    are pure observability cost.  This is how the paper's Fig. 9 error
    growth becomes observable *live*: KE drift and divergence blow-up
    show up in the gauges/trace thousands of steps before the roll-out
    visibly diverges.
    """
    u = np.asarray(u, dtype=np.float64)  # a float32 model's raw prediction, too
    omega = vorticity_from_velocity(u, length)
    ke = kinetic_energy(u)
    ens = enstrophy(omega)
    rms_div = float(np.sqrt(np.mean(divergence(u, length) ** 2)))
    obs.metric_gauge("rollout_kinetic_energy", ke)
    obs.metric_gauge("rollout_enstrophy", ens)
    obs.metric_gauge("rollout_rms_divergence", rms_div)
    obs.event(
        "rollout.diag", t=float(t), phase=phase,
        kinetic_energy=ke, enstrophy=ens, rms_divergence=rms_div,
    )


class HybridFNOPDE:
    """Alternating FNO/PDE integrator.

    Parameters
    ----------
    model:
        Trained temporal-channel FNO (``in/out_channels`` consistent with
        ``config``).
    solver:
        A :class:`repro.ns.NSSolverBase` instance on the same grid.
    config:
        Window sizes and snapshot spacing.
    normalizer:
        Optional :class:`repro.data.FieldNormalizer` applied around the
        model.
    convective_time:
        Physical duration of one ``t_c`` (solver time units per
        convective time; equals the domain length when U0 = 1).
    guard:
        :class:`repro.faults.DivergenceGuard` applied to every FNO
        prediction; a rejected window is replaced by PDE integration
        (``"pde-fallback"`` provenance) instead of propagating NaNs.
        Pass ``None`` to disable.
    """

    def __init__(
        self,
        model: Module,
        solver: NSSolverBase,
        config: HybridConfig,
        normalizer=None,
        convective_time: float | None = None,
        guard: DivergenceGuard | None = DivergenceGuard(),
    ):
        expected_in = config.n_in * config.n_fields
        expected_out = config.n_out * config.n_fields
        if model.in_channels != expected_in or model.out_channels != expected_out:
            raise ValueError(
                f"model channels ({model.in_channels}→{model.out_channels}) do not match "
                f"config windows ({expected_in}→{expected_out})"
            )
        self.model = model
        self.solver = solver
        self.config = config
        self.normalizer = normalizer
        self.convective_time = (
            convective_time if convective_time is not None else solver.length
        )
        self.guard = guard

    # ------------------------------------------------------------------
    def run(self, initial_window: np.ndarray, t0: float = 0.0) -> RolloutRecord:
        """Run ``config.n_cycles`` FNO+PDE cycles from an initial window.

        ``initial_window`` holds ``n_in`` velocity snapshots
        ``(n_in, 2, n, n)`` spaced ``sample_interval`` apart (physical
        units).  The record includes the initial window.  Delegates to
        :func:`run_hybrid_batched` with a batch of one.
        """
        return run_hybrid_batched(
            self.model,
            [self.solver],
            np.asarray(initial_window)[None],
            self.config,
            normalizer=self.normalizer,
            convective_time=self.convective_time,
            t0=t0,
            guard=self.guard,
        )[0]


def run_hybrid_batched(
    model: Module,
    solvers: list[NSSolverBase],
    windows: np.ndarray,
    config: HybridConfig,
    normalizer=None,
    convective_time: float | None = None,
    t0: float = 0.0,
    guard: DivergenceGuard | None = DivergenceGuard(),
) -> list[RolloutRecord]:
    """Run ``B`` hybrid roll-outs with their FNO steps batched together.

    The FNO half of every cycle is a single batched forward pass over all
    ``B`` requests (the serving micro-batcher's hot path); the PDE half
    runs per-request because each trajectory owns solver state.

    ``guard`` (on by default) checks each request's FNO prediction for
    NaNs/energy blow-up against its own input window; a rejected window
    is regenerated by that request's PDE solver (provenance
    ``"pde-fallback"``) so one diverging trajectory degrades gracefully
    instead of poisoning its record — the fallback the paper's hybrid
    scheme exists to make possible.

    Parameters
    ----------
    model:
        Trained temporal-channel FNO shared by all requests.
    solvers:
        One solver per request (same grid); their state is overwritten.
    windows:
        Initial windows ``(B, n_in, n_fields, n, n)`` in physical units.
    config, normalizer, convective_time, t0:
        As for :class:`HybridFNOPDE`.

    Returns one :class:`RolloutRecord` per request, bit-for-bit equal to
    running each request alone: the model's kernels keep each sample's
    bits independent of the batch (see
    :func:`repro.tensor.fft_ops.mode_mix`).
    """
    cfg = config
    windows = np.asarray(windows)
    if windows.ndim != 5:
        raise ValueError("windows must be (B, n_in, n_fields, n, n)")
    B = windows.shape[0]
    if len(solvers) != B:
        raise ValueError(f"got {len(solvers)} solvers for batch of {B}")
    if windows.shape[1] != cfg.n_in:
        raise ValueError(f"expected {cfg.n_in} initial snapshots, got {windows.shape[1]}")
    expected_in = cfg.n_in * cfg.n_fields
    expected_out = cfg.n_out * cfg.n_fields
    if model.in_channels != expected_in or model.out_channels != expected_out:
        raise ValueError(
            f"model channels ({model.in_channels}→{model.out_channels}) do not match "
            f"config windows ({expected_in}→{expected_out})"
        )
    t_c = convective_time if convective_time is not None else solvers[0].length
    dt_phys = cfg.sample_interval * t_c
    n1, n2 = windows.shape[-2:]

    snaps: list[list[np.ndarray]] = [
        [windows[b, i] for i in range(cfg.n_in)] for b in range(B)
    ]
    # Provenance is per-request: the divergence guard can replace one
    # request's FNO window with a PDE fallback while the rest of the
    # batch keeps its FNO prediction.
    sources: list[list[str]] = [["init"] * cfg.n_in for _ in range(B)]
    with obs.span("hybrid.run", batch=B, cycles=cfg.n_cycles, grid=n1):
        for cycle in range(cfg.n_cycles):
            with obs.span("hybrid.cycle", cycle=cycle):
                with obs.span("hybrid.fno"):
                    stacked = np.stack([np.stack(s[-cfg.n_in :]) for s in snaps])
                    x = stacked.reshape(B, expected_in, n1, n2)
                    # Widen to the PDE's float64 (a no-op once the normalizer has).
                    pred = apply_channels(model, x, normalizer).astype(np.float64, copy=False)
                    if _faults.ACTIVE:
                        pred = _faults.fire_value("rollout.step", pred, cycle=cycle)
                    for b in range(B):
                        block = pred[b].reshape(cfg.n_out, cfg.n_fields, n1, n2)
                        reason = (
                            guard.diagnose(block, float(np.mean(np.square(stacked[b]))))
                            if guard is not None
                            else None
                        )
                        if reason is None:
                            snaps[b].extend(block)
                            sources[b].extend(["fno"] * cfg.n_out)
                        else:
                            _pde_fallback(solvers[b], snaps[b], cfg.n_out, dt_phys)
                            sources[b].extend(["pde-fallback"] * cfg.n_out)
                            obs.event("hybrid.fallback", cycle=cycle, request=b,
                                      reason=reason)
                            if reason.startswith("trust:"):
                                # Physics-policy rejection (TrustGuard),
                                # distinct from NaN/energy blow-up.
                                obs.metrics_registry().counter(
                                    "rollout_trust_fallbacks_total"
                                ).inc()
                if obs.enabled():
                    _emit_rollout_diagnostics(
                        snaps[0][-1], solvers[0].length,
                        t=t0 + (len(snaps[0]) - 1) * cfg.sample_interval, phase="fno",
                    )

                with obs.span("hybrid.pde"):
                    for b, solver in enumerate(solvers):
                        solver.set_velocity(snaps[b][-1])
                        for _ in range(cfg.n_in):
                            solver.advance(dt_phys)
                            snaps[b].append(solver.velocity)
                        sources[b].extend(["pde"] * cfg.n_in)
                if obs.enabled():
                    _emit_rollout_diagnostics(
                        snaps[0][-1], solvers[0].length,
                        t=t0 + (len(snaps[0]) - 1) * cfg.sample_interval, phase="pde",
                    )

    times = t0 + np.arange(len(snaps[0])) * cfg.sample_interval
    return [
        RolloutRecord(
            times=times.copy(),
            velocity=np.stack(snaps[b]),
            source=list(sources[b]),
            length=solvers[b].length,
        )
        for b in range(B)
    ]


def _pde_fallback(solver: NSSolverBase, snaps: list, n_snapshots: int,
                  dt_phys: float) -> None:
    """Regenerate a rejected FNO window by PDE integration from the last
    good snapshot, counting the event in the obs metrics registry."""
    solver.set_velocity(snaps[-1])
    for _ in range(n_snapshots):
        solver.advance(dt_phys)
        snaps.append(solver.velocity)
    obs.metrics_registry().counter("rollout_fallbacks_total").inc()


def run_pure_fno(
    model: Module,
    initial_window: np.ndarray,
    n_snapshots: int,
    n_fields: int = 2,
    normalizer=None,
    sample_interval: float = 0.005,
    t0: float = 0.0,
    length: float = 2.0 * np.pi,
    guard: DivergenceGuard | None = None,
) -> RolloutRecord:
    """Iterative pure-FNO roll-out in the shared record format.

    Unlike the hybrid driver there is no PDE to fall back on, so a
    ``guard`` failure raises :class:`repro.faults.RolloutDiverged`.
    """
    return run_pure_fno_batched(
        model,
        np.asarray(initial_window)[None],
        n_snapshots,
        n_fields=n_fields,
        normalizer=normalizer,
        sample_interval=sample_interval,
        t0=t0,
        length=length,
        guard=guard,
    )[0]


def run_pure_fno_batched(
    model: Module,
    windows: np.ndarray,
    n_snapshots: int,
    n_fields: int = 2,
    normalizer=None,
    sample_interval: float = 0.005,
    t0: float = 0.0,
    length: float = 2.0 * np.pi,
    guard: DivergenceGuard | None = None,
) -> list[RolloutRecord]:
    """Pure-FNO roll-outs for a whole batch of initial windows at once.

    ``windows`` has shape ``(B, n_in, n_fields, n, n)``; the iterative
    roll-out stacks all ``B`` requests along the model's batch axis so
    each FNO application is a single forward pass.  Returns one
    :class:`RolloutRecord` per request.
    """
    windows = np.asarray(windows)
    if windows.ndim != 5:
        raise ValueError("windows must be (B, n_in, n_fields, n, n)")
    B, n_in, nf, n1, n2 = windows.shape
    if nf != n_fields:
        raise ValueError(f"windows have {nf} field components, expected {n_fields}")
    window_ch = windows.reshape(B, n_in * n_fields, n1, n2)
    with obs.span("rollout.pure_fno", batch=B, snapshots=n_snapshots, grid=n1):
        preds = rollout_channels(model, window_ch, n_snapshots, n_fields, normalizer,
                                 guard=guard)
    pred_snaps = preds.reshape(B, preds.shape[1] // n_fields, n_fields, n1, n2)
    times = t0 + np.arange(n_in + pred_snaps.shape[1]) * sample_interval
    if obs.enabled() and n_fields == 2:
        for i in range(pred_snaps.shape[1]):
            _emit_rollout_diagnostics(
                pred_snaps[0, i], length, t=float(times[n_in + i]), phase="fno"
            )
    source = ["init"] * n_in + ["fno"] * pred_snaps.shape[1]
    return [
        RolloutRecord(
            times=times.copy(),
            velocity=np.concatenate([windows[b], pred_snaps[b]]),
            source=list(source),
            length=length,
        )
        for b in range(B)
    ]


def run_pure_pde(
    solver: NSSolverBase,
    initial_window: np.ndarray,
    n_snapshots: int,
    sample_interval: float = 0.005,
    convective_time: float | None = None,
    t0: float = 0.0,
) -> RolloutRecord:
    """Reference PDE trajectory continuing from the newest initial snapshot."""
    t_c = convective_time if convective_time is not None else solver.length
    solver.set_velocity(initial_window[-1])
    dt_phys = sample_interval * t_c
    snaps = [initial_window[i] for i in range(initial_window.shape[0])]
    source = ["init"] * initial_window.shape[0]
    for _ in range(n_snapshots):
        solver.advance(dt_phys)
        snaps.append(solver.velocity)
        source.append("pde")
    times = t0 + np.arange(len(snaps)) * sample_interval
    return RolloutRecord(times=times, velocity=np.stack(snaps), source=source, length=solver.length)
