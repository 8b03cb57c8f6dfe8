"""repro.compile — an inference and training compiler for the FNO.

Eager inference pays the full autograd machinery on every call: one
Python dispatch, graph bookkeeping, and a fresh allocation per primitive.
For the paper's headline use — FNO surrogates replacing DNS timesteps in
long rollouts (Fig. 9) — that overhead dominates small-batch forwards.
This package removes it:

* :mod:`~repro.compile.tracer` runs ``Module.forward`` once under a
  recording context (:mod:`repro.tensor.recording`) and captures the
  linear op schedule.
* :mod:`~repro.compile.plan` lowers the schedule into a
  :class:`~repro.compile.plan.CompiledPlan`: buffer-arena liveness
  assignment plus one ``run`` closure per op from
  :mod:`~repro.compile.kernels`; each closure calls the eager op's own
  forward, so plans are bit-for-bit equivalent to eager.
* :mod:`~repro.compile.runtime` caches plans per
  ``(model, batch_shape, dtype)`` with eager fallback for anything it
  cannot compile (``repro.compile.forward(model, x) -> array | None``).
* :mod:`~repro.compile.train` builds training plans from one eager
  forward under trace: a forward + backward plan whose reverse steps
  call the op table's VJPs in the order eager backward runs them, read
  from the output's graph
  (``repro.compile.train_forward(model, x) -> Tensor``, used by
  ``Trainer``).

The serve registry keeps the cache coherent: evicting or
mtime-invalidating a model also drops its plans (see
``repro.serve.registry``).  ``repro compile`` prints a plan's schedule,
buffer bytes, and FLOP estimate from the command line.
"""

from .plan import CompiledPlan, PlanMismatchError, UnsupportedOpError
from .runtime import (
    PlanCache,
    clear,
    enabled,
    forward,
    invalidate,
    plan_cache,
    set_enabled,
    stats,
    train_forward,
)
from .tracer import compile_model, trace_model
from .train import TrainPlan

__all__ = [
    "CompiledPlan",
    "TrainPlan",
    "PlanCache",
    "PlanMismatchError",
    "UnsupportedOpError",
    "compile_model",
    "trace_model",
    "plan_cache",
    "forward",
    "train_forward",
    "invalidate",
    "clear",
    "stats",
    "enabled",
    "set_enabled",
]
