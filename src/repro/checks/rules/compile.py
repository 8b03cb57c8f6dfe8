"""RPR009 — allocation hygiene in plan-executed hot paths.

The whole point of :mod:`repro.compile` is that a plan's per-call work
writes into preallocated arena buffers: the kernel *builder* runs once
and may allocate freely, but the ``run``/``execute`` closures it returns
run on every inference request.  A fresh ``np.empty``/``np.zeros`` (or a
:class:`~repro.tensor.Tensor` construction, which drags autograd tape
machinery back in) inside one of those closures silently re-introduces
the per-op allocation the compiler exists to remove.

Within compile-zone files the rule flags, inside any function named
``run`` or ``execute`` (including nested closures):

* calls to numpy allocators (``np.empty/zeros/ones/full``, their
  ``*_like`` variants, ``np.array``, ``np.copy``), and
* ``Tensor(...)`` construction.

Intentional allocations — e.g. the output copy that keeps arena storage
from escaping to callers — carry a baseline entry or a justified
suppression.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterator

from ..findings import Finding
from ..project import ModuleInfo, dotted_name
from ..registry import rule

_ALLOCATORS = {
    "empty", "zeros", "ones", "full",
    "empty_like", "zeros_like", "ones_like", "full_like",
    "array", "copy",
}
_NUMPY_NAMES = {"np", "numpy"}
_HOT_FUNCTIONS = {"run", "execute"}


def _hot_allocations(fn: ast.AST) -> Iterator[tuple[ast.Call, str]]:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        parts = name.split(".")
        if parts[0] in _NUMPY_NAMES and parts[-1] in _ALLOCATORS:
            yield node, name
        elif parts[-1] == "Tensor":
            yield node, name


@rule(
    "RPR009",
    "compile-alloc-hygiene",
    "fresh numpy allocation or Tensor/tape construction inside a "
    "plan-executed run/execute hot path (write into arena buffers instead)",
)
def check_compile_allocations(ctx: ModuleInfo) -> Iterator[Finding]:
    if "compile" not in PurePosixPath(ctx.path).parts:
        return
    for node in ctx.nodes:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name not in _HOT_FUNCTIONS:
            continue
        for call, name in _hot_allocations(node):
            what = (
                "constructs a Tensor (autograd tape)" if name.endswith("Tensor")
                else f"allocates via {name}"
            )
            yield ctx.finding(
                "RPR009", call,
                f"plan hot path '{node.name}' {what} on every call; "
                "preallocate an arena buffer at build time instead",
            )
