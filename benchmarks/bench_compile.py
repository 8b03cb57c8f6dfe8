"""Inference-compiler probe: compiled vs eager single-request latency.

Times ``repro.core.rollout.apply_channels`` — the forward shared by
rollouts, the hybrid scheme, and serving — in both execution modes on a
serving-scale temporal-channel FNO (width 2, 5 layers, ReLU, float32,
batch 1): exactly the regime the compiler targets, where Python/autograd
dispatch and per-op allocation dominate the arithmetic.

Eager and compiled rounds are interleaved back to back so CPU-frequency
and cache noise hits both symmetrically; the reported speedup is the
median of per-round ratios.  The probe also counts allocations per call
— fresh tensor materialisations for eager (every ``Tensor.from_op``
funnel hit, counted by a tensor-op observer) against the compiled plan's
fresh step outputs — checks the compiled output is *bitwise* identical
to eager, and fails (non-zero exit) if the median speedup drops under
``SPEEDUP_GATE`` — CI runs this as a regression gate and publishes
``results/bench_compile.json``::

    PYTHONPATH=src python benchmarks/bench_compile.py
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np

from repro import compile as rc
from repro.core import ChannelFNOConfig, build_model
from repro.core.rollout import apply_channels
from repro.tensor import tensor as tensor_module

GRID = 32
MODEL = ChannelFNOConfig(
    n_in=2, n_out=1, n_fields=2, modes1=4, modes2=4, width=2, n_layers=5,
    projection_channels=8, activation="relu",
)
ROUNDS = 9
REPS = 60
SPEEDUP_GATE = 2.0


def _time_calls(fn, reps: int) -> float:
    t0 = time.perf_counter()
    for _ in range(reps):
        fn()
    return (time.perf_counter() - t0) / reps


def _materializations(fn) -> int:
    """Fresh tensor materialisations in one call (``Tensor.from_op`` hits).

    Counted by an observer on the ``Tensor.from_op`` funnel; plan
    execution never routes through the tensor layer, so a compiled call
    counts zero here and its allocation story is read off the plan
    instead (fresh step outputs vs arena writes).
    """
    hits = []

    def count(out, parents) -> None:
        hits.append(None)

    tensor_module.add_observer(count)
    try:
        fn()
    finally:
        tensor_module.remove_observer(count)
    return len(hits)


def run_compile_probe():
    rng = np.random.default_rng(0)
    model = build_model(MODEL, rng=rng)
    x = rng.standard_normal(
        (1, MODEL.in_channels, GRID, GRID)
    ).astype(np.float32)

    def eager():
        rc.set_enabled(False)
        try:
            return apply_channels(model, x)
        finally:
            rc.set_enabled(True)

    def compiled():
        return apply_channels(model, x)

    rc.clear()
    out_eager = eager()
    out_compiled = compiled()  # traces the plan
    out_compiled = compiled()  # first cache hit
    bitwise = bool(np.array_equal(out_eager, out_compiled))

    ratios, eager_times, compiled_times = [], [], []
    for _ in range(ROUNDS):
        te = _time_calls(eager, REPS)
        tc = _time_calls(compiled, REPS)
        eager_times.append(te)
        compiled_times.append(tc)
        ratios.append(te / tc)
    speedup = statistics.median(ratios)
    t_eager = statistics.median(eager_times)
    t_compiled = statistics.median(compiled_times)

    alloc_eager = _materializations(eager)
    alloc_compiled = _materializations(compiled)

    plan = rc.plan_cache().plan_for(model, x)
    desc = plan.describe()
    stats = rc.stats()
    fresh_compiled = sum(
        1 for step in desc["steps"] if step["kind"] not in ("arena", "view")
    ) + (0 if plan.output_fresh else 1)

    print(f"apply_channels, {MODEL.n_layers}-layer 2-D FNO w{MODEL.width} "
          f"{GRID}^2 f32 batch 1 (median of {ROUNDS} interleaved rounds):")
    print(f"  eager      {t_eager * 1e6:8.1f} us/call   "
          f"({alloc_eager} tensor materialisations/call)")
    print(f"  compiled   {t_compiled * 1e6:8.1f} us/call   "
          f"({alloc_compiled} tensor materialisations, "
          f"{fresh_compiled} fresh arrays/call)")
    print(f"  speedup    {speedup:.2f}x (per-round "
          f"{min(ratios):.2f}x..{max(ratios):.2f}x)")
    print(f"  plan       {desc['n_steps']} steps, arena "
          f"{desc['arena_bytes'] / 1024:.1f} KiB "
          f"({desc['buffers_reused']} buffer slots reused)")
    print(f"  bitwise    {'identical' if bitwise else 'MISMATCH'}")
    verdict = "OK" if bitwise and speedup >= SPEEDUP_GATE else "REGRESSION"
    print(f"  gate       >= {SPEEDUP_GATE:.1f}x and bitwise -> {verdict}")

    result = {
        "eager_us": t_eager * 1e6,
        "compiled_us": t_compiled * 1e6,
        "speedup": speedup,
        "round_ratios": ratios,
        "bitwise_identical": bitwise,
        "materializations_eager": alloc_eager,
        "materializations_compiled": alloc_compiled,
        "fresh_arrays_compiled": fresh_compiled,
        "plan": {
            "n_steps": desc["n_steps"],
            "arena_bytes": desc["arena_bytes"],
            "buffers_reused": desc["buffers_reused"],
            "est_flops": desc["est_flops"],
        },
        "cache_stats": stats,
        "gate": SPEEDUP_GATE,
        "verdict": verdict,
    }
    # Publish the numbers either way so CI keeps the artifact on failure.
    from common import write_results

    write_results("bench_compile", result)
    if verdict != "OK":
        sys.exit(1)
    return result


if __name__ == "__main__":
    from common import bench_entry

    bench_entry(run_compile_probe)
