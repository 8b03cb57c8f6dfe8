"""Rule registry: the one catalogue of rule ids, filled by :func:`rule`.

A per-file rule is a function ``check(module: ModuleInfo) ->
Iterable[Finding]``; the engine runs it over every parsed file, and
since it is a pure function of that file it composes and tests in
isolation.  A whole-program analysis is a class constructed as
``Analysis(project, graph)`` whose ``run()`` returns findings; it
registers every rule id it reports by stacking :func:`rule` on the
class, and the engine runs it once over the whole project.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

__all__ = ["RuleSpec", "rule", "all_rules", "get_rule"]

# Zones let rules scope themselves to the parts of the tree where their
# hazard actually applies (see classify_zone in project.py).
HOT_ZONE = "hot"        # nn/, serve/, tensor/ — the float32 serving path
SOLVER_ZONE = "solver"  # ns/, ns3d/, lbm/ — float64 numerics by design
COMPILE_ZONE = "compile"  # compile/ — plan-executed closures, allocation-free
TEST_ZONE = "test"
OTHER_ZONE = "other"


@dataclass(frozen=True)
class RuleSpec:
    id: str
    name: str
    description: str
    check: Callable  # per-file function, or the whole-program analysis class

    @property
    def per_file(self) -> bool:
        return not isinstance(self.check, type)


_RULES: dict[str, RuleSpec] = {}


def rule(rule_id: str, name: str, description: str):
    """Register ``check`` (a rule function or analysis class) under ``rule_id``."""

    def decorator(check: Callable):
        if rule_id in _RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        _RULES[rule_id] = RuleSpec(id=rule_id, name=name, description=description, check=check)
        return check

    return decorator


def all_rules() -> list[RuleSpec]:
    # Importing the rules package populates the registry on first use.
    from . import rules  # noqa: F401

    return [spec for _, spec in sorted(_RULES.items())]


def get_rule(rule_id: str) -> RuleSpec:
    from . import rules  # noqa: F401

    try:
        return _RULES[rule_id]
    except KeyError:
        known = ", ".join(sorted(_RULES))
        raise KeyError(f"unknown rule {rule_id!r} (known: {known})") from None
