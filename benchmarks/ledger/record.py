"""Record a ledger row: repeated untraced sets plus traced runs of every workload.

Usage, from the repository root::

    python3 benchmarks/ledger/record.py --out benchmarks/ledger/results/BENCH_<tag>.json

A row is two sets of untraced runs at seeds 1–10 of every workload,
then a traced run of each workload at seeds 1 and 2.  Every run goes
through the command in ``BENCHMARK.json`` with its ``run_seconds``, from
the repository root.  The summary gives, per workload and
end-to-end metric, each set's median, its spread (quartile distance over
median, as ``statistics.quantiles(n=4)`` computes it), and how far the
second set's median moved from the first, against the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SEEDS = range(1, 11)
SETS = 2
TRACED_SEEDS = (1, 2)
# Per-layer counts that do not depend on timing, so they must repeat
# exactly from one traced run to the next.
REPEATABLE = ("core.fallback_ratio", "compile.fallbacks", "fleet.exactly_once",
              "fleet.unrouted", "trust.trusted_ratio")


def _run(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": (proc.stdout + proc.stderr)[-2000:]}
    host = next((json.loads(l[len("host: "):]) for l in lines if l.startswith("host: ")), None)
    return {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
            "wall_s": wall, "host": host, **result}


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _traced_counts(runs: list[dict]) -> dict:
    """Per workload, the counts that must repeat exactly across traced runs."""
    out: dict = {}
    for r in runs:
        if r["trace"] and "metrics" in r:
            row = out.setdefault(r["workload"], {})
            for name in REPEATABLE:
                row.setdefault(name, []).append(r["metrics"][name]["value"])
            row.setdefault("failed", []).append(r["failed"])
    return out


def summarize(bench: dict, runs: list[dict]) -> dict:
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    out = {}
    for workload in sorted({r["workload"] for r in runs if not r["trace"]}):
        per_metric = {}
        for name, spec in bounds.items():
            sets = {}
            for r in runs:
                if r["workload"] == workload and not r["trace"] and "metrics" in r:
                    sets.setdefault(r["set"], []).append(r["metrics"][name]["value"])
            rows = {str(k): {"median": statistics.median(v), "spread": _spread(v), "n": len(v)}
                    for k, v in sorted(sets.items()) if len(v) >= 2}
            entry = {"bound": spec["bound"], "better": spec["better"], "sets": rows}
            if len(rows) >= 2:
                first, second = rows["0"]["median"], rows["1"]["median"]
                worse = (second - first) / first
                entry["second_vs_first"] = worse if spec["better"] == "lower" else -worse
            per_metric[name] = entry
        out[workload] = per_metric
    return {"all_correct": all(r.get("correct") and r["exit"] == 0 for r in runs),
            "end_to_end": out, "traced_counts": _traced_counts(runs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    # Workloads take turns seed by seed, so a slow spell of the host is
    # shared among them rather than landing on one workload's set.
    plan = [(w, s, 0, k) for k in range(SETS) for s in SEEDS for w in workloads]
    plan += [(w, s, 1, None) for s in TRACED_SEEDS for w in workloads]
    done = []
    for workload, seed, trace, set_index in plan:
        run = {**_run(bench, workload, seed, trace), "set": set_index}
        done.append(run)
        ok = run.get("correct") and run["exit"] == 0
        print(f"{workload:20s} seed {seed:3d} trace {trace} set {set_index} "
              f"{'ok' if ok else 'FAILED'} {run['wall_s']:.1f} s", flush=True)

    hosts = [r["host"] for r in done if r.get("host")]
    row = {
        "benchmark": {k: bench[k] for k in ("command", "run_seconds")},
        "host": hosts[0] if hosts else None,
        "summary": summarize(bench, done),
        "runs": done,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(row, indent=1) + "\n")
    print(json.dumps(row["summary"], indent=1))
    return 0 if row["summary"]["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
