"""RPR008 — artifact integrity: raw artifact writes bypassing utils.artifacts.

Every durable artifact in the tree (checkpoints, shards, rollouts) must
be written through :mod:`repro.utils.artifacts` — the atomic
tmp-then-rename publish plus the manifest sidecar are what make crash
recovery and manifest-gated loads possible.  A bare ``np.savez`` or
``open(path, "wb")`` produces a file that can be torn mid-write and
carries no checksum, so a loader cannot tell a good artifact from a
corrupt one.

Flags (outside tests and outside ``utils/artifacts.py`` itself):

* ``np.savez`` / ``np.savez_compressed`` / ``np.save`` calls — use
  :func:`repro.utils.artifacts.atomic_write_npz`.
* ``open(..., "wb")`` / ``path.open("wb")`` calls — use
  :func:`repro.utils.artifacts.atomic_write_bytes` (or ``_json``).

By-design exceptions (figure writes in ``analysis/visualization.py``,
the unbuffered trace sink) stay grandfathered in the committed baseline
or carry a justified ``# repro: ignore[RPR008]``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..project import ModuleInfo, dotted_name
from ..registry import TEST_ZONE, rule

_NP_WRITERS = {
    "np.save", "np.savez", "np.savez_compressed",
    "numpy.save", "numpy.savez", "numpy.savez_compressed",
}


def _mode_argument(call: ast.Call) -> ast.expr | None:
    """The mode expression of an ``open``-style call, if present.

    Handles builtin ``open(path, "wb")`` (mode is the second positional)
    and ``pathlib.Path.open("wb")`` (mode is the first positional); both
    also accept ``mode=`` as a keyword.
    """
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    if isinstance(call.func, ast.Name):  # open(path, mode)
        return call.args[1] if len(call.args) >= 2 else None
    return call.args[0] if call.args else None  # path.open(mode)


def _is_binary_write_mode(node: ast.expr | None) -> bool:
    if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
        return False
    mode = node.value
    return "b" in mode and any(c in mode for c in "wxa")


def _is_open_call(call: ast.Call) -> bool:
    if isinstance(call.func, ast.Name):
        return call.func.id == "open"
    return isinstance(call.func, ast.Attribute) and call.func.attr == "open"


@rule(
    "RPR008",
    "artifact-integrity",
    "raw np.savez/open(..., 'wb') artifact writes that bypass "
    "utils.artifacts atomic publish and manifest sidecars",
)
def check_artifact_integrity(ctx: ModuleInfo) -> Iterator[Finding]:
    if ctx.zone == TEST_ZONE or ctx.path.endswith("utils/artifacts.py"):
        return
    for node in ctx.nodes:
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name in _NP_WRITERS:
            yield ctx.finding(
                "RPR008", node,
                f"raw {name} write: not atomic and leaves no integrity "
                "manifest; use repro.utils.artifacts.atomic_write_npz",
            )
        elif _is_open_call(node) and _is_binary_write_mode(_mode_argument(node)):
            yield ctx.finding(
                "RPR008", node,
                "raw binary write handle: a crash mid-write leaves a torn, "
                "unverifiable file; use repro.utils.artifacts atomic writers",
            )
