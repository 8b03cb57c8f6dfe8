"""RPR011 — trust fidelity: diagnostics must see the prediction as served.

The whole point of :mod:`repro.trust` is to measure the field the client
actually receives.  Casting a prediction before diagnosing it
(``rms_divergence(u.astype(np.float64))``) reports the divergence of a
*different* field — float32 serving noise is exactly what the diagnostic
exists to catch, and an f64 round-trip hides it (the same reason RPR001
polices ``np.fft``'s silent complex128 promotion).  Decimating the grid
(``pde_residual_norm(u[..., ::2, ::2], ...)``) is worse: subsampling
aliases the high-``k`` content where FNO spectral bias lives.

Flags, outside tests: any call to a trust diagnostic entry point
(``rms_divergence``, ``pde_residual_norm``, ``spectrum_drift``,
``radial_energy_spectrum``, ``diagnose_prediction``, ``assess_prediction``)
whose field argument is

* an ``.astype(...)`` call — explicit dtype cast at the call site;
* an ``np.asarray``/``np.array``/``np.float32``/``np.float64`` cast
  carrying a ``dtype=`` keyword (or a scalar-type constructor call);
* a step-sliced subscript (``u[..., ::2, ::2]``) — grid decimation.

Fix: hand the diagnostic the prediction array itself; the trust layer
computes at native dtype/grid by construction (scipy.fft preserves
float32, multiplier caches are per-dtype).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..project import ModuleInfo, dotted_name
from ..registry import TEST_ZONE, rule

# Diagnostic entry points whose array arguments must be served verbatim.
_DIAGNOSTIC_LEAVES = {
    "rms_divergence",
    "pde_residual_norm",
    "spectrum_drift",
    "radial_energy_spectrum",
    "diagnose_prediction",
    "assess_prediction",
}

_CAST_CALLS = {"float32", "float64", "single", "double", "half"}
_DTYPE_KWARG_CALLS = {"asarray", "array", "ascontiguousarray", "astype"}


def _is_cast(node: ast.AST) -> str | None:
    """A cast expression → short description, else None."""
    if not isinstance(node, ast.Call):
        return None
    name = dotted_name(node.func) or ""
    leaf = name.split(".")[-1]
    if isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
        return ".astype(...) cast"
    if leaf in _CAST_CALLS:
        return f"{name}(...) dtype constructor"
    if leaf in _DTYPE_KWARG_CALLS and any(kw.arg == "dtype" for kw in node.keywords):
        return f"{name}(..., dtype=...) cast"
    return None


def _has_step_slice(node: ast.AST) -> bool:
    """``u[..., ::2]``-style subscripts — grid decimation."""
    if not isinstance(node, ast.Subscript):
        return False
    slices = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
    return any(isinstance(s, ast.Slice) and s.step is not None for s in slices)


@rule(
    "RPR011",
    "trust-fidelity",
    "trust diagnostics fed a cast or grid-decimated prediction; diagnose "
    "the served array at its native dtype/grid — the diagnostic exists to "
    "measure exactly what a cast would hide",
)
def check_trust_fidelity(ctx: ModuleInfo) -> Iterator[Finding]:
    if ctx.zone == TEST_ZONE:
        return
    for node in ctx.nodes:
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func) or ""
        if name.split(".")[-1] not in _DIAGNOSTIC_LEAVES:
            continue
        args = list(node.args) + [kw.value for kw in node.keywords]
        for arg in args:
            cast = _is_cast(arg)
            if cast is not None:
                yield ctx.finding(
                    "RPR011", arg,
                    f"{name}(...) receives a {cast}: diagnostics must run at "
                    f"the prediction's served dtype (float32 noise is the "
                    f"signal, not an artifact to launder away)",
                )
            elif _has_step_slice(arg):
                yield ctx.finding(
                    "RPR011", arg,
                    f"{name}(...) receives a step-sliced (decimated) field: "
                    f"subsampling aliases the high-k content the diagnostics "
                    f"measure; pass the full served grid",
                )
