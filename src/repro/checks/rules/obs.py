"""RPR006 — observability hygiene.

Two hazards, both born from the obs subsystem's contracts:

* **Wall-clock durations.** ``time.time()`` is subject to NTP steps and
  DST jumps; every duration in the repo must come from
  ``time.perf_counter()`` (the obs tracer's time base).  The rule flags
  any ``time.time()`` call outside tests — the rare legitimate wall-clock
  use (stamping a trace header with the calendar time) carries an inline
  suppression with its justification.

* **Manually entered spans.** ``obs.span(...)`` / ``tracer.span(...)``
  relies on ``with`` for LIFO enter/exit on the thread-local span stack;
  calling ``.__enter__`` by hand (or just dropping the returned span)
  corrupts the stack for every span below it.  The rule flags ``span``
  calls that are neither a ``with`` context expression nor immediately
  returned by a wrapper.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..project import ModuleInfo, dotted_name
from ..registry import TEST_ZONE, rule
from ._util import names_from_import


def _span_call_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@rule(
    "RPR006",
    "obs-hygiene",
    "time.time() used where a monotonic duration is expected, or an obs "
    "span entered without a with-statement (breaks the span stack)",
)
def check_obs_hygiene(ctx: ModuleInfo) -> Iterator[Finding]:
    if ctx.zone == TEST_ZONE:
        return

    time_aliases = names_from_import(ctx.nodes, "time")

    # Calls that *are* `with` context expressions or returned verbatim
    # are the sanctioned uses of span(); collect them first.
    sanctioned: set[int] = set()
    for node in ctx.nodes:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if isinstance(item.context_expr, ast.Call):
                    sanctioned.add(id(item.context_expr))
        elif isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
            sanctioned.add(id(node.value))

    for node in ctx.nodes:
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name == "time.time" or (name == "time" and "time" in time_aliases):
            yield ctx.finding(
                "RPR006", node,
                "time.time() is wall-clock (NTP/DST can step it); durations "
                "must use time.perf_counter() or obs.span() — suppress with "
                "a justification if calendar time is really intended",
            )
        elif _span_call_name(node) == "span" and id(node) not in sanctioned:
            yield ctx.finding(
                "RPR006", node,
                "span() entered without a with-statement; spans must be used "
                "as context managers so the thread-local span stack stays LIFO",
            )
