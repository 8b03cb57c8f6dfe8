"""Trace a model forward into a compiled plan.

One trace per ``(model, batch_shape, dtype)``: the forward runs *once*
eagerly under a :class:`~repro.tensor.recording.Recorder` (so the traced
call costs one ordinary forward, whose output is returned to the caller
— no wasted work), and the recorded schedule is lowered by
:func:`repro.compile.plan.build_plan`.
"""

from __future__ import annotations

import numpy as np

from ..tensor.recording import Recorder
from ..tensor.tensor import Tensor, no_grad
from .plan import CompiledPlan, UnsupportedOpError, build_plan

__all__ = ["trace_model", "compile_model", "module_paths"]


def module_paths(model) -> dict[int, str]:
    """``id(module) -> dotted path`` for ``model`` and its submodules."""
    paths, stack = {}, [("", model)]
    while stack:
        prefix, module = stack.pop()
        paths[id(module)] = prefix
        for name, child in getattr(module, "_modules", {}).items():
            stack.append((f"{prefix}.{name}" if prefix else name, child))
    return paths


def trace_model(model, x: np.ndarray) -> tuple[CompiledPlan, np.ndarray]:
    """Trace ``model`` on input ``x``; returns ``(plan, traced_output)``.

    The traced output is the ordinary eager no-grad result for ``x`` —
    callers that were about to run a forward anyway can use it directly.

    Raises :class:`UnsupportedOpError` when the schedule contains ops the
    compiler cannot execute (the model should then be served eagerly).
    """
    x = np.asarray(x)
    model.eval()
    inp = Tensor(x)
    with no_grad():
        with Recorder() as recorder:
            out = model(inp)
    if not isinstance(out, Tensor):
        raise UnsupportedOpError("model forward did not return a Tensor")
    plan = build_plan(recorder, inp, out, model_name=type(model).__name__,
                      module_paths=module_paths(model))
    return plan, out.data


def compile_model(model, shape, dtype=np.float32, rng: np.random.Generator | None = None) -> CompiledPlan:
    """Build a plan for ``model`` at ``(shape, dtype)`` without real data.

    Used by the ``repro compile`` CLI and benchmarks: traces on a
    deterministic synthetic input (values are irrelevant — only shapes
    and dtypes shape the plan).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    example = rng.standard_normal(shape).astype(np.dtype(dtype))
    plan, _ = trace_model(model, example)
    return plan
