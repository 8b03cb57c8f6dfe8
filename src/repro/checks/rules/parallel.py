"""RPR010 — process-parallel hygiene: raw multiprocessing outside repro.parallel.

:mod:`repro.parallel` is the repo's one process boundary: it pins the
spawn start method, passes arrays as task arguments and results over the
pool's pipes, derives per-task seeds so results are independent of
worker count, relays obs metrics/spans back to the parent, and survives
SIGKILLed workers.  A raw ``multiprocessing.Process``/``Pool``, a
``concurrent.futures.ProcessPoolExecutor``, a bare
``SharedMemory(...)`` allocation or an ``os.fork()`` anywhere else
silently forfeits all of that — fork-started children deadlock on
inherited locks, unseeded workers break bitwise reproducibility, and a
raw segment has no owner to unlink it, so it leaks ``/dev/shm`` on
crash.

Flags, outside ``repro/parallel`` and outside tests:

* calls to ``Process``/``Pool``/``ProcessPoolExecutor``/``SharedMemory``/
  ``ShareableList`` imported from ``multiprocessing``,
  ``multiprocessing.shared_memory`` or ``concurrent.futures``, and the
  same attributes reached through a module alias
  (``mp.Pool(...)``, ``concurrent.futures.ProcessPoolExecutor(...)``);
* ``multiprocessing.get_context(...)`` / ``set_start_method(...)`` —
  start-method policy belongs to the pool, not call sites;
* ``os.fork()``.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Iterator

from ..findings import Finding
from ..project import ModuleInfo, dotted_name
from ..registry import TEST_ZONE, rule

_PROC_MODULES = {"multiprocessing", "multiprocessing.shared_memory",
                 "concurrent.futures"}
_PROC_NAMES = {
    "Process", "Pool", "ProcessPoolExecutor", "SharedMemory",
    "ShareableList", "get_context", "set_start_method",
}


def _imported_hazards(nodes: list[ast.AST]) -> tuple[set[str], set[str]]:
    """(module aliases bound to process modules, names imported from them)."""
    aliases: set[str] = set()
    names: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name in _PROC_MODULES or item.name == "concurrent":
                    aliases.add((item.asname or item.name).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.module in _PROC_MODULES:
                for item in node.names:
                    if item.name in _PROC_NAMES:
                        names.add(item.asname or item.name)
                    elif item.name == "shared_memory":
                        aliases.add(item.asname or item.name)
    return aliases, names


@rule(
    "RPR010",
    "parallel-hygiene",
    "raw multiprocessing/ProcessPoolExecutor/SharedMemory use outside "
    "repro.parallel; route process fan-out through ProcessPool/parallel_map "
    "with arrays as task arguments and results, so seeding and obs relay hold",
)
def check_parallel_hygiene(ctx: ModuleInfo) -> Iterator[Finding]:
    parts = PurePosixPath(ctx.path).parts
    if ctx.zone == TEST_ZONE or "parallel" in parts:
        return
    aliases, names = _imported_hazards(ctx.nodes)
    for node in ctx.nodes:
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if not name:
            continue
        head, _, _ = name.partition(".")
        leaf = name.split(".")[-1]
        if name == "os.fork":
            yield ctx.finding(
                "RPR010", node,
                "os.fork() bypasses repro.parallel: forked children inherit "
                "live locks and RNG state; use ProcessPool (spawn) instead",
            )
        elif leaf in _PROC_NAMES and (head in aliases or (name == leaf and leaf in names)):
            yield ctx.finding(
                "RPR010", node,
                f"direct {name}(...) call bypasses repro.parallel; use "
                f"ProcessPool/parallel_map and pass arrays as task arguments "
                f"and results (seeding, obs relay and crash recovery come free)",
            )
