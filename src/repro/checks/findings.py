"""Finding and result model shared by the static-analysis engine and its CLI.

A :class:`Finding` pins one rule violation to a file/line and carries the
stripped source line as its *snippet*.  The snippet — not the line
number — is what identifies a finding in the committed baseline, so
grandfathered findings survive unrelated edits that shift line numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .callgraph import CallGraph


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def baseline_key(self) -> str:
        """Identity used for baseline matching (line-number independent)."""
        return f"{self.rule}::{self.path}::{self.snippet}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule)


@dataclass
class CheckResult:
    """Aggregate outcome of one engine run.

    ``files`` holds the display path of every file the run parsed;
    ``errors`` holds one entry per file that failed to parse.  ``graph``
    is the project's call graph (stats in the JSON report, dot export on
    request) and ``provenance`` the seed-provenance table of RPR105.
    """

    findings: list[Finding] = field(default_factory=list)
    baselined: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    files: list[str] = field(default_factory=list)
    graph: CallGraph | None = None
    provenance: list[dict] = field(default_factory=list)

    @property
    def n_files(self) -> int:
        return len(self.files) + len(self.errors)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.errors

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "ok": self.ok,
            "counts": {
                "files": self.n_files,
                "findings": len(self.findings),
                "baselined": len(self.baselined),
                "suppressed": len(self.suppressed),
                "errors": len(self.errors),
            },
            "findings": [f.to_dict() for f in sorted(self.findings, key=Finding.sort_key)],
            "errors": list(self.errors),
            "callgraph": self.graph.stats() if self.graph is not None else {},
            "provenance": self.provenance,
        }
