"""RPR001 — dtype promotion hazards on the float32 serving path.

``numpy.fft`` transforms always return complex128/float64, silently
promoting float32 inputs and erasing the f32 serving speedup — the repo
policy is ``scipy.fft`` (pocketfft preserves single precision) for every
transform outside reference/test code.  In the hot zones (``nn/``,
``serve/``, ``tensor/``) the rule additionally flags explicit widenings:
``astype(np.float64)``, ``np.float64(...)``, ``np.complex128(...)`` and
``dtype=np.complex128`` arguments.

Grid-helper calls (``fftfreq``/``rfftfreq``/``fftshift``/...) are
setup-time and dtype-preserving by use, so they are exempt.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..project import ModuleInfo, dotted_name
from ..registry import HOT_ZONE, TEST_ZONE, rule
from ._util import names_from_import

_TRANSFORMS = {
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn",
    "hfft", "ihfft",
}
_WIDE_TYPES = {"float64", "complex128"}


def _numpy_fft_transform(func: ast.AST, fft_imports: set[str]) -> str | None:
    name = dotted_name(func)
    if name is None:
        return None
    parts = name.split(".")
    if len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "fft" and parts[2] in _TRANSFORMS:
        return name
    if len(parts) == 1 and parts[0] in fft_imports and parts[0] in _TRANSFORMS:
        return name
    return None


def _is_wide_dtype(node: ast.AST) -> str | None:
    name = dotted_name(node)
    if name is None:
        if isinstance(node, ast.Constant) and node.value in _WIDE_TYPES:
            return str(node.value)
        return None
    leaf = name.split(".")[-1]
    return leaf if leaf in _WIDE_TYPES else None


@rule(
    "RPR001",
    "dtype-promotion",
    "np.fft transforms and explicit float64/complex128 widenings that break the "
    "float32 policy (use scipy.fft; keep hot paths single precision)",
)
def check_dtype_promotion(ctx: ModuleInfo) -> Iterator[Finding]:
    if ctx.zone == TEST_ZONE:
        return
    fft_imports = names_from_import(ctx.nodes, "numpy.fft")
    for node in ctx.nodes:
        if not isinstance(node, ast.Call):
            continue
        transform = _numpy_fft_transform(node.func, fft_imports)
        if transform is not None:
            yield ctx.finding(
                "RPR001", node,
                f"{transform} promotes float32 input to complex128/float64; "
                f"use scipy.fft (preserves single precision)",
            )
            continue
        if ctx.zone != HOT_ZONE:
            continue
        func_name = dotted_name(node.func)
        # np.float64(...) / np.complex128(...) constructions.
        if func_name in ("np.float64", "numpy.float64", "np.complex128", "numpy.complex128"):
            yield ctx.finding(
                "RPR001", node,
                f"{func_name}(...) constructs a wide scalar/array in a float32 hot path",
            )
            continue
        # x.astype(np.float64) / x.astype("complex128").
        if isinstance(node.func, ast.Attribute) and node.func.attr == "astype" and node.args:
            wide = _is_wide_dtype(node.args[0])
            if wide is not None:
                yield ctx.finding(
                    "RPR001", node,
                    f"astype({wide}) upcasts in a float32 hot path; "
                    f"derive the dtype from the input instead",
                )
                continue
        # dtype=np.complex128 keyword (complex64 is the f32-path choice).
        for kw in node.keywords:
            if kw.arg == "dtype" and _is_wide_dtype(kw.value) == "complex128":
                yield ctx.finding(
                    "RPR001", kw.value,
                    "dtype=complex128 hard-codes double precision in a hot path; "
                    "select complex64 for float32 inputs",
                )
