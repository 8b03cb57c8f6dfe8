"""RPR007 — resilience hygiene: hand-rolled unbounded retry loops.

With :mod:`repro.faults` in the tree there is no excuse for ad-hoc
retry code.  Flags (outside tests and outside ``repro.faults`` itself):

* ``while True:`` loops whose failure path cannot escape — the loop
  contains an exception handler with no ``raise``/``return``/``break``,
  so a persistent error spins forever.  Use
  :class:`repro.faults.RetryPolicy` / :func:`repro.faults.call_with_retry`
  (bounded attempts, seeded backoff, deadline support) instead.
* ``except Exception:`` / ``except BaseException:`` handlers whose body
  is only ``continue`` — the swallow-and-go-around variant of the
  silent handlers RPR005 already flags (bare ``except:`` and
  ``pass``-only bodies stay RPR005's to avoid double findings).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..project import ModuleInfo, dotted_name
from ..registry import TEST_ZONE, rule


def _is_forever(test: ast.expr) -> bool:
    return isinstance(test, ast.Constant) and bool(test.value) is True


def _handler_escapes(handler: ast.ExceptHandler) -> bool:
    return any(
        isinstance(n, (ast.Raise, ast.Return, ast.Break))
        for n in ast.walk(handler)
    )


def _catches_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:  # bare except — RPR005's finding
        return False
    names = (
        [dotted_name(t) for t in handler.type.elts]
        if isinstance(handler.type, ast.Tuple)
        else [dotted_name(handler.type)]
    )
    return any(n in ("Exception", "BaseException") for n in names)


@rule(
    "RPR007",
    "resilience-hygiene",
    "unbounded while-True retry loops and except-Exception handlers that "
    "silently continue; use repro.faults retry/backoff policies",
)
def check_resilience_hygiene(ctx: ModuleInfo) -> Iterator[Finding]:
    if ctx.zone == TEST_ZONE or "faults" in ctx.path.split("/"):
        return
    swallowed_in_loops: set[ast.ExceptHandler] = set()
    for node in ctx.nodes:
        if not (isinstance(node, ast.While) and _is_forever(node.test)):
            continue
        handlers = [
            h for h in ast.walk(node)
            if isinstance(h, ast.ExceptHandler) and not _handler_escapes(h)
        ]
        if handlers:
            swallowed_in_loops.update(handlers)
            yield ctx.finding(
                "RPR007", node,
                "unbounded 'while True' retry loop: a handler swallows the "
                "error with no raise/return/break, so persistent failure "
                "spins forever; use repro.faults.RetryPolicy/call_with_retry",
            )
    for node in ctx.nodes:
        if (
            isinstance(node, ast.ExceptHandler)
            and node not in swallowed_in_loops
            and _catches_broad(node)
            and len(node.body) == 1
            and isinstance(node.body[0], ast.Continue)
        ):
            yield ctx.finding(
                "RPR007", node,
                "except-Exception handler silently continues the loop; retry "
                "with a bounded repro.faults.RetryPolicy or let the error "
                "propagate",
            )
