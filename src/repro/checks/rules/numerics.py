"""RPR005 — numerics hygiene: silent error/NaN swallowing, lost dealiasing.

A turbulence solver that silently absorbs NaNs or drops its dealiasing
mask produces plausible-looking garbage.  Flags (outside tests):

* bare ``except:`` handlers (catch ``Exception``, never ``SystemExit``),
* ``except ...: pass`` — errors disappearing without trace,
* ``np.nan_to_num(...)`` without an explicit ``nan=`` argument — the
  silent 0.0 default masks solver blow-up, and
* solver-constructor calls inside a function that itself takes a
  ``dealias`` parameter but does not forward it — the ablation flag dies
  in the middle of the call chain.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..project import ModuleInfo, dotted_name
from ..registry import TEST_ZONE, rule


def _passes_kwargs(call: ast.Call) -> bool:
    return any(kw.arg is None for kw in call.keywords)


def _dealias_params(fn: ast.FunctionDef) -> list[str]:
    params = [a.arg for a in fn.args.args + fn.args.kwonlyargs]
    return [p for p in params if p.startswith("dealias")]


@rule(
    "RPR005",
    "numerics-hygiene",
    "bare/silent exception handlers, default-NaN nan_to_num, and dealias flags "
    "dropped in solver call chains",
)
def check_numerics_hygiene(ctx: ModuleInfo) -> Iterator[Finding]:
    if ctx.zone == TEST_ZONE:
        return
    for node in ctx.nodes:
        if isinstance(node, ast.ExceptHandler):
            if node.type is None:
                yield ctx.finding(
                    "RPR005", node,
                    "bare 'except:' also catches KeyboardInterrupt/SystemExit; "
                    "catch Exception (or narrower)",
                )
            if len(node.body) == 1 and isinstance(node.body[0], ast.Pass):
                yield ctx.finding(
                    "RPR005", node,
                    "exception handler silently swallows the error (body is only "
                    "'pass'); log, re-raise or narrow it",
                )
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name in ("np.nan_to_num", "numpy.nan_to_num") and not any(
                kw.arg == "nan" for kw in node.keywords
            ):
                yield ctx.finding(
                    "RPR005", node,
                    "nan_to_num without an explicit nan= silently maps solver "
                    "blow-up to 0.0; state the replacement (or assert finiteness)",
                )
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            dealias = _dealias_params(node)
            if not dealias:
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                callee = dotted_name(call.func)
                leaf = callee.split(".")[-1] if callee else ""
                if "Solver" not in leaf:
                    continue
                forwarded = _passes_kwargs(call) or any(
                    kw.arg in dealias or (kw.arg or "").startswith("dealias")
                    for kw in call.keywords
                )
                if not forwarded:
                    yield ctx.finding(
                        "RPR005", call,
                        f"{node.name}() takes '{dealias[0]}' but calls {leaf} "
                        f"without forwarding it; the dealiasing choice is lost",
                    )
