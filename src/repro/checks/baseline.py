"""Committed baseline of grandfathered findings.

The baseline maps a finding's :meth:`~repro.checks.findings.Finding.baseline_key`
(rule + path + stripped source line) to an allowed occurrence count, so
pre-existing findings don't fail CI while every *new* finding does.  Keys
are line-number independent: moving code around does not invalidate the
baseline, but changing the offending line (or adding another identical
one) surfaces it again.

Format (JSON, sorted keys for stable diffs)::

    {
      "version": 1,
      "comment": "optional free-form rationale",
      "findings": {"RPR001::src/repro/ns/fields.py::w_hat = np.fft.rfft2(omega)": 1, ...}
    }
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

from .findings import Finding

__all__ = ["Baseline", "load_baseline", "write_baseline", "prune_baseline", "rebaseline"]

BASELINE_VERSION = 1


class Baseline:
    """Occurrence-counted allow-list consumed destructively per run."""

    def __init__(self, counts: dict[str, int] | None = None, comment: str = ""):
        self.counts = Counter(counts or {})
        self.comment = comment

    def __len__(self) -> int:
        return sum(self.counts.values())

    def make_matcher(self):
        """Return a stateful ``match(finding) -> bool`` for one engine run.

        Each baseline entry absorbs at most its recorded count of
        findings, so an *extra* occurrence of a grandfathered pattern is
        still reported as new.
        """
        remaining = Counter(self.counts)

        def match(finding: Finding) -> bool:
            key = finding.baseline_key()
            if remaining[key] > 0:
                remaining[key] -= 1
                return True
            return False

        return match

    @staticmethod
    def from_findings(findings: list[Finding], comment: str = "") -> "Baseline":
        counts = Counter(f.baseline_key() for f in findings)
        return Baseline(dict(counts), comment=comment)

    def to_dict(self) -> dict:
        payload = {"version": BASELINE_VERSION, "findings": dict(sorted(self.counts.items()))}
        if self.comment:
            payload["comment"] = self.comment
        return payload


def prune_baseline(baseline: Baseline, findings: list[Finding],
                   in_scope=None) -> tuple[Baseline, int]:
    """Drop baseline entries whose source sites no longer exist.

    ``findings`` must come from a run *without* a baseline, so it is the
    complete set of live findings for the run's scope.  Each in-scope
    entry's count is clamped to the number of live occurrences of its
    key; entries that reach zero are removed.  ``in_scope(key)`` limits
    the pruning to the entries that run could have reproduced (default:
    all of them); the rest are kept as they are.  Returns the pruned
    baseline and how many stale occurrences were dropped.
    """
    live = Counter(f.baseline_key() for f in findings)
    kept: dict[str, int] = {}
    removed = 0
    for key, recorded in baseline.counts.items():
        keep = recorded if in_scope and not in_scope(key) else min(recorded, live[key])
        if keep:
            kept[key] = keep
        removed += recorded - keep
    return Baseline(kept, comment=baseline.comment), removed


def rebaseline(baseline: Baseline, findings: list[Finding], in_scope,
               comment: str = "") -> Baseline:
    """Replace the in-scope entries of ``baseline`` with ``findings``.

    Entries with ``in_scope(key)`` false — another rule, or a file the
    run did not scan — are kept, so a narrowed run never drops them.
    ``comment`` applies when the baseline has none of its own.
    """
    counts = Counter({k: v for k, v in baseline.counts.items() if not in_scope(k)})
    counts.update(f.baseline_key() for f in findings)
    return Baseline(dict(counts), comment=baseline.comment or comment)


def load_baseline(path) -> Baseline:
    path = Path(path)
    if not path.is_file():
        return Baseline()
    data = json.loads(path.read_text())
    if data.get("version") != BASELINE_VERSION:
        raise ValueError(f"{path}: unsupported baseline version {data.get('version')!r}")
    counts = data.get("findings", {})
    if not all(isinstance(v, int) and v > 0 for v in counts.values()):
        raise ValueError(f"{path}: baseline counts must be positive integers")
    return Baseline(counts, comment=data.get("comment", ""))


def write_baseline(path, baseline: Baseline) -> None:
    Path(path).write_text(json.dumps(baseline.to_dict(), indent=2, sort_keys=True) + "\n")
