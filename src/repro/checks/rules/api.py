"""RPR004 — API contracts of the Module system and function signatures.

``repro.nn.Module`` registers parameters/submodules through
``__setattr__`` into dicts created by ``Module.__init__`` — a subclass
whose ``__init__`` skips ``super().__init__()`` silently registers
*nothing* and trains a constant.  Flags, for direct ``Module``/
``nn.Module`` subclasses:

* an ``__init__`` without a ``super().__init__()`` call,
* no ``forward`` defined in the class body (containers that are never
  called directly should carry a justified suppression).

Independently of Module, mutable default arguments (``def f(x, y=[])``,
``y={}``, ``y=np.zeros(...)``) are flagged everywhere outside tests: the
default is created once and shared across calls.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..project import ModuleInfo, dotted_name
from ..registry import TEST_ZONE, rule

_MUTABLE_FACTORIES = {
    "list", "dict", "set", "bytearray", "deque", "Counter", "defaultdict",
    "OrderedDict", "array", "zeros", "ones", "empty", "full",
}


def _is_module_base(base: ast.AST) -> bool:
    name = dotted_name(base)
    return name is not None and name.split(".")[-1] == "Module"


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name is not None and name.split(".")[-1] in _MUTABLE_FACTORIES
    return False


def _calls_super_init(fn: ast.FunctionDef) -> bool:
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__init__"
            and isinstance(node.func.value, ast.Call)
            and dotted_name(node.func.value.func) == "super"
        ):
            return True
    return False


@rule(
    "RPR004",
    "api-contracts",
    "Module subclasses missing super().__init__()/forward and mutable default "
    "arguments (shared across calls)",
)
def check_api_contracts(ctx: ModuleInfo) -> Iterator[Finding]:
    if ctx.zone == TEST_ZONE:
        return
    for node in ctx.nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield ctx.finding(
                        "RPR004", default,
                        f"mutable default argument in {node.name}(); the object is "
                        f"created once and shared across calls — default to None",
                    )
        elif isinstance(node, ast.ClassDef) and any(_is_module_base(b) for b in node.bases):
            body_fns = {
                item.name: item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            init = body_fns.get("__init__")
            if init is not None and not _calls_super_init(init):
                yield ctx.finding(
                    "RPR004", init,
                    f"{node.name}.__init__ never calls super().__init__(); parameter/"
                    f"submodule registration dicts are missing and nothing trains",
                )
            if "forward" not in body_fns:
                yield ctx.finding(
                    "RPR004", node,
                    f"Module subclass {node.name} defines no forward(); calling it "
                    f"raises NotImplementedError",
                )
