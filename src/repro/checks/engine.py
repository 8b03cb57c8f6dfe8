"""The static-analysis engine: one parsed project, every rule, one filter.

Pipeline: walk and parse every file once into a
:class:`~repro.checks.project.Project` → run each selected per-file rule
over each parsed file → build the call graph and run each selected
whole-program analysis over the same project → drop findings silenced
by ``# repro: ignore[...]`` comments → match the remainder against the
committed baseline.  Whatever survives is a *new* finding and fails the
run.
"""

from __future__ import annotations

from pathlib import Path

from .baseline import Baseline
from .callgraph import build_callgraph
from .findings import CheckResult, Finding
from .project import Project
from .registry import all_rules
from .rules.seeds import SeedTaintAnalysis

__all__ = ["check_paths"]


def check_paths(
    paths,
    select: list[str] | None = None,
    baseline: Baseline | None = None,
    root: str | Path | None = None,
) -> CheckResult:
    """Run the rule pack over ``paths`` and classify every finding.

    ``select`` restricts to a subset of rule ids; ``baseline`` absorbs
    grandfathered findings; ``root`` anchors the relative paths used in
    output and baseline keys (default: the current directory).
    """
    specs = all_rules()
    if select:
        wanted = set(select)
        unknown = wanted - {s.id for s in specs}
        if unknown:
            raise KeyError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        specs = [s for s in specs if s.id in wanted]
    selected = {s.id for s in specs}

    project = Project.load(paths, root=root)
    graph = build_callgraph(project)
    result = CheckResult(errors=list(project.errors),
                         files=[m.path for m in project.files], graph=graph)

    raw: list[Finding] = []
    for module in project.files:
        for spec in specs:
            if spec.per_file:
                raw.extend(spec.check(module))
    # An analysis reports several ids; it runs once if any is selected.
    for analysis_cls in dict.fromkeys(s.check for s in specs if not s.per_file):
        analysis = analysis_cls(project, graph)
        raw.extend(f for f in analysis.run() if f.rule in selected)
        if isinstance(analysis, SeedTaintAnalysis):
            result.provenance = analysis.provenance_rows()

    by_path = {module.path: module for module in project.files}
    match_baseline = (baseline or Baseline()).make_matcher()
    for finding in sorted(raw, key=Finding.sort_key):
        if by_path[finding.path].suppressions.is_suppressed(finding.rule, finding.line):
            result.suppressed.append(finding)
        elif match_baseline(finding):
            result.baselined.append(finding)
        else:
            result.findings.append(finding)
    return result
