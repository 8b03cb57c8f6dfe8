"""``repro check`` — run the static analyzer from the command line.

Usage::

    python -m repro.cli check src                      # text report
    python -m repro.cli check src --format json        # + call-graph stats, seed provenance
    python -m repro.cli check src --graph callgraph.dot
    python -m repro.cli check src --write-baseline     # grandfather findings
    python -m repro.cli check src --prune-baseline     # drop stale entries
    python -m repro.cli check src --select RPR001,RPR103
    python -m repro.cli check --list-rules

``--write-baseline`` and ``--prune-baseline`` rewrite only the entries
the run could have reproduced: a selected rule in a scanned file (or in
a file that no longer exists).  Entries of other rules and other files
are kept.

Exit codes: 0 — clean (only suppressed/baselined findings); 1 — new
findings; 2 — usage, parse or baseline-format errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .baseline import Baseline, load_baseline, prune_baseline, rebaseline, write_baseline
from .engine import check_paths
from .registry import all_rules

__all__ = ["add_check_arguments", "run_check", "main"]

DEFAULT_BASELINE = "checks-baseline.json"


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``check`` options to an (sub)parser."""
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to analyse (default: src)")
    parser.add_argument("--format", choices=["text", "json"], default="text",
                        help="report format")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE, metavar="FILE",
                        help=f"baseline of grandfathered findings (default: {DEFAULT_BASELINE})")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore the baseline file; report every finding")
    parser.add_argument("--write-baseline", action="store_true",
                        help="record current findings as the baseline entries of "
                             "this run's rules and files, and exit 0")
    parser.add_argument("--prune-baseline", action="store_true",
                        help="remove this run's baseline entries whose source sites "
                             "no longer exist, rewrite the file, and exit 0")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run (default: all)")
    parser.add_argument("--graph", default=None, metavar="FILE",
                        help="write the call graph as Graphviz dot to FILE ('-' for stdout)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--verbose", action="store_true",
                        help="also list baselined and suppressed findings (text format)")


def _rewrite_baseline(args, result, select) -> None:
    """Apply ``--write-baseline`` / ``--prune-baseline`` to this run's scope."""
    rules = set(select) if select else {spec.id for spec in all_rules()}
    files = set(result.files)

    def in_scope(key: str) -> bool:
        rule_id, path, _ = key.split("::", 2)
        return rule_id in rules and (path in files or not Path(path).exists())

    baseline = load_baseline(args.baseline)
    if args.prune_baseline:
        pruned, removed = prune_baseline(baseline, result.findings, in_scope)
        if removed:
            write_baseline(args.baseline, pruned)
        print(f"pruned {removed} stale entr{'y' if removed == 1 else 'ies'} "
              f"from {args.baseline} ({len(pruned)} remaining)")
    else:
        new_baseline = rebaseline(
            baseline, result.findings, in_scope,
            comment="Grandfathered findings; fix or justify before extending.",
        )
        write_baseline(args.baseline, new_baseline)
        print(f"wrote {len(result.findings)} finding(s) to {args.baseline} "
              f"({len(new_baseline)} entries)")


def run_check(args) -> int:
    if args.list_rules:
        for spec in all_rules():
            print(f"{spec.id}  {spec.name:<18} {spec.description}")
        return 0

    select = [r.strip() for r in args.select.split(",") if r.strip()] if args.select else None
    rewrite = args.write_baseline or args.prune_baseline
    try:
        baseline = Baseline() if (args.no_baseline or rewrite) else load_baseline(args.baseline)
        result = check_paths(args.paths, select=select, baseline=baseline)
        if rewrite:
            # A file that failed to parse reports nothing, so a rewrite
            # would drop its entries.
            if result.errors:
                raise ValueError("baseline left unchanged, parse errors: "
                                 + "; ".join(result.errors))
            _rewrite_baseline(args, result, select)
            return 0
    except (FileNotFoundError, KeyError, ValueError) as exc:
        print(f"repro check: error: {exc}", file=sys.stderr)
        return 2

    if args.graph is not None:
        dot = result.graph.to_dot()
        if args.graph == "-":
            sys.stdout.write(dot)
        else:
            Path(args.graph).write_text(dot, encoding="utf-8")

    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2))
    else:
        for finding in result.findings:
            print(finding.render())
        if args.verbose:
            for label, bucket in (("baselined", result.baselined),
                                  ("suppressed", result.suppressed)):
                for finding in bucket:
                    print(f"[{label}] {finding.render()}")
        for error in result.errors:
            print(f"error: {error}", file=sys.stderr)
        stats = result.graph.stats()
        print(
            f"checked {result.n_files} file(s) "
            f"({stats['nodes']} call-graph nodes, {stats['edges']} edges, "
            f"{stats['concurrent']} concurrency-reachable): "
            f"{len(result.findings)} finding(s), "
            f"{len(result.baselined)} baselined, {len(result.suppressed)} suppressed"
            + (f", {len(result.errors)} error(s)" if result.errors else "")
        )
    if result.errors:
        return 2
    return 0 if result.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro check", description="repro static analyzer"
    )
    add_check_arguments(parser)
    return run_check(parser.parse_args(argv))
