"""CLI backends for ``repro trace`` and ``repro profile``.

``repro trace run.jsonl`` renders the aggregated span tree of a JSONL
trace (count / total / self time per span path).  ``repro profile
script.py`` runs a Python script — typically one of the ``benchmarks/``
entry points — with spans on and inside :func:`repro.obs.hooks.profile`
(solver and compiled-plan step timing), writes the trace next to the
script and prints the tree and the metrics; with ``--overhead-budget``
it additionally times an uninstrumented run and fails when
instrumentation costs more than the budgeted percentage.
"""

from __future__ import annotations

import runpy
import sys
import time
from pathlib import Path

from .trace import load_trace, render_tree

__all__ = ["add_trace_arguments", "run_trace", "add_profile_arguments", "run_profile"]


# ---------------------------------------------------------------------------
# repro trace
# ---------------------------------------------------------------------------


def add_trace_arguments(parser) -> None:
    parser.add_argument("trace", help="JSONL trace written by the obs tracer")
    parser.add_argument("--min-self-ms", type=float, default=0.0,
                        help="hide leaf spans with less self time than this")
    parser.add_argument("--depth", type=int, default=None,
                        help="limit the rendered tree depth")
    parser.add_argument("--events", action="store_true",
                        help="also list instantaneous event records")


def run_trace(args) -> int:
    try:
        records = load_trace(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_tree(records, min_self_ms=args.min_self_ms, max_depth=args.depth))
    if args.events:
        events = [r for r in records if r.get("type") == "event"]
        if events:
            print(f"\nevents ({len(events)}):")
            for record in events:
                attrs = record.get("attrs") or {}
                detail = " ".join(f"{k}={v}" for k, v in attrs.items())
                print(f"  {record['t0']:>10.3f}s {record['name']:<24} {detail}")
    return 0


# ---------------------------------------------------------------------------
# repro profile
# ---------------------------------------------------------------------------


def add_profile_arguments(parser) -> None:
    parser.add_argument("script",
                        help="Python script to run under instrumentation "
                             "(profile options must come before it)")
    parser.add_argument("script_args", nargs="...", default=[],
                        help="everything after the script is forwarded to it")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="trace destination (default: <script>.trace.jsonl)")
    parser.add_argument("--min-self-ms", type=float, default=0.0)
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--overhead-budget", type=float, default=None, metavar="PCT",
                        help="also time an uninstrumented run (after a cache-warming "
                             "run) and fail when instrumentation adds more than PCT%%")


def _run_script(script: Path, argv: list[str]) -> float:
    """Execute ``script`` as ``__main__``; returns wall seconds."""
    saved_argv, saved_path = sys.argv, list(sys.path)
    sys.argv = [str(script)] + list(argv)
    sys.path.insert(0, str(script.parent))
    start = time.perf_counter()
    try:
        runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (None, 0):
            raise
    finally:
        sys.argv = saved_argv
        sys.path[:] = saved_path
    return time.perf_counter() - start


def _run_instrumented(script: Path, argv: list[str], trace_path) -> float:
    """Run ``script`` with spans on and inside :func:`hooks.profile`."""
    from . import configure, hooks

    configure(trace_path=trace_path, keep_records=False)
    with hooks.profile():
        return _run_script(script, argv)


def run_profile(args) -> int:
    from . import metrics_registry, shutdown

    script = Path(args.script).resolve()
    if not script.exists():
        print(f"error: no such script {script}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else script.with_name(script.stem + ".trace.jsonl")

    plain = None
    if args.overhead_budget is not None:
        # First run warms every disk cache (datasets, trained models) so
        # the plain-vs-instrumented comparison measures instrumentation,
        # not cache misses; the warm-up is also the *instrumented* one so
        # any residual warm/cold bias counts against the budget.
        try:
            _run_instrumented(script, args.script_args, None)
        finally:
            shutdown()
        plain = _run_script(script, args.script_args)

    try:
        instrumented = _run_instrumented(script, args.script_args, out)
    finally:
        registry_snapshot = metrics_registry().snapshot()
        shutdown()

    records = load_trace(out)
    print(f"\nprofile: {len(records)} record(s) -> {out}")
    print(render_tree(records, min_self_ms=args.min_self_ms, max_depth=args.depth))
    if registry_snapshot:
        print("\nmetrics:")
        for name in sorted(registry_snapshot):
            print(f"  {name}: {registry_snapshot[name]}")

    if plain is not None:
        overhead = (instrumented - plain) / plain * 100.0 if plain > 0 else 0.0
        print(f"\noverhead: plain {plain:.3f}s instrumented {instrumented:.3f}s "
              f"({overhead:+.1f}%, budget {args.overhead_budget:.1f}%)")
        if overhead > args.overhead_budget:
            print("error: instrumentation overhead exceeds budget", file=sys.stderr)
            return 1
    return 0
