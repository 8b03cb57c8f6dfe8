"""The shipped rule pack.  Importing this package registers every rule.

Per-file rules (one AST at a time):

| id     | name               | hazard                                           |
|--------|--------------------|--------------------------------------------------|
| RPR001 | dtype-promotion    | np.fft / float64 / complex128 on the f32 path    |
| RPR002 | thread-safety      | lock-free shared-state writes in repro.serve     |
| RPR003 | reproducibility    | unseeded RNGs, legacy global np.random state     |
| RPR004 | api-contracts      | broken Module registration, mutable defaults     |
| RPR005 | numerics-hygiene   | silent except/NaN handling, dropped dealias flag |
| RPR006 | obs-hygiene        | wall-clock durations, spans entered without with |
| RPR007 | resilience-hygiene | unbounded while-True retries, swallow-and-continue |
| RPR008 | artifact-integrity | raw np.savez / open-"wb" writes bypassing manifests |
| RPR009 | compile-alloc-hygiene | fresh allocations / Tensor tape in plan-executed hot paths |
| RPR010 | parallel-hygiene   | raw multiprocessing/SharedMemory bypassing repro.parallel |
| RPR011 | trust-fidelity     | trust diagnostics fed cast/decimated predictions |

Whole-program analyses (over the project and its call graph):

| id     | name               | analysis                                         |
|--------|--------------------|--------------------------------------------------|
| RPR101 | dtype-widening     | cross-module implicit f32→f64/c128 widening (dtypeflow) |
| RPR102 | shape-contract     | statically provable shape mismatches (dtypeflow) |
| RPR103 | unlocked-write     | shared-state writes outside the owning lock (races) |
| RPR104 | torn-read          | multi-attribute reads without the guarding lock (races) |
| RPR105 | seed-provenance    | artifact writes fed by unseeded RNG streams (seeds) |
"""

from . import (  # noqa: F401
    api, artifacts, compile, dtype, dtypeflow, faults, numerics, obs, parallel,
    races, rng, seeds, threads, trust,
)

__all__ = [
    "api", "artifacts", "compile", "dtype", "dtypeflow", "faults", "numerics",
    "obs", "parallel", "races", "rng", "seeds", "threads", "trust",
]
