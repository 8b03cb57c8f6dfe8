"""Fault-injection overhead probe — pins the zero-cost-when-disabled claim.

Times the hottest instrumented path (``rollout.step`` inside
:func:`repro.core.rollout.rollout_channels`) in three configurations:

* **disabled** — no plan installed; sites are a single ``injection.ACTIVE``
  bool read, which must be indistinguishable from uninstrumented code;
* **inert** — a plan installed whose only spec targets a site the
  workload never reaches, paying the registry ``poll()`` per step;
* **firing** — a delay-free NaN spec firing on a far-future step, the
  worst non-raising bookkeeping cost.

Prints per-config wall time and the disabled/inert ratios.  CI treats a
disabled-vs-baseline slowdown above ``BUDGET`` as a regression (same
contract the ``TestDisabledIsNoOp`` tests pin structurally)::

    PYTHONPATH=src python benchmarks/bench_faults_overhead.py
"""

import time

import numpy as np

from repro.core import ChannelFNOConfig, build_model
from repro.core.rollout import rollout_channels
from repro.faults import FaultPlan, FaultSpec, injection

GRID = 24
MODEL = ChannelFNOConfig(
    n_in=2, n_out=1, n_fields=2, modes1=6, modes2=6, width=12, n_layers=3,
    projection_channels=24,
)
N_SNAPSHOTS = 40
REPEATS = 3
BUDGET = 1.10  # disabled sites may cost at most 10% over the median spread


def _time_rollout(model, window):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        rollout_channels(model, window, n_snapshots=N_SNAPSHOTS, n_fields=2)
        best = min(best, time.perf_counter() - t0)
    return best


def run_faults_probe():
    rng = np.random.default_rng(0)
    model = build_model(MODEL, rng=rng)
    window = rng.standard_normal(
        (1, MODEL.n_in * MODEL.n_fields, GRID, GRID)
    ).astype(np.float32)

    _time_rollout(model, window)  # warm the FFT plans / caches

    assert not injection.ACTIVE
    t_disabled = _time_rollout(model, window)

    with injection.active(FaultPlan([FaultSpec("checkpoint.write", "error")])):
        t_inert = _time_rollout(model, window)

    with injection.active(
        FaultPlan([FaultSpec("rollout.step", "nan", at=10**9)])
    ):
        t_firing = _time_rollout(model, window)

    print(f"rollout_channels x{N_SNAPSHOTS} steps (best of {REPEATS}):")
    print(f"  disabled      {t_disabled * 1e3:8.2f} ms")
    print(f"  inert plan    {t_inert * 1e3:8.2f} ms  ({t_inert / t_disabled:.3f}x)")
    print(f"  polling plan  {t_firing * 1e3:8.2f} ms  ({t_firing / t_disabled:.3f}x)")
    ratio = t_inert / t_disabled
    verdict = "OK" if ratio < BUDGET or t_inert - t_disabled < 5e-3 else "OVER BUDGET"
    print(f"  budget {BUDGET:.2f}x -> {verdict}")
    return {"disabled_s": t_disabled, "inert_s": t_inert, "firing_s": t_firing}


if __name__ == "__main__":
    from common import bench_entry

    bench_entry(run_faults_probe)
