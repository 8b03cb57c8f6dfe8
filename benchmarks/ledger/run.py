"""Performance ledger: run one workload, check its outputs, print its metrics.

Usage, from the repository root::

    python3 benchmarks/ledger/run.py --workload <name> --seed <n> [--seconds 20] [--trace 0|1]

Workloads: ``fleet_fno``, ``direct_hybrid_trust``, ``train``, ``datagen``
(see README.md for why each exists).  The run prints a table, then a
``host:`` line, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run also replays its load with spans around every layer and prints
the per-layer metrics instead, writing the spans as JSONL under
``benchmarks/ledger/out/``.  A workload that cannot run on this host
prints ``skipped: <reason>`` and exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
WORKLOADS = {  # name → module in the ledger package
    "fleet_fno": "fleet",
    "direct_hybrid_trust": "direct",
    "train": "train",
    "datagen": "datagen",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: replay with per-layer spans, print per-layer metrics")
    return parser.parse_args(argv)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if hasattr(value, "item"):
        return value.item()
    return str(value)


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"skipped: no repro sources under {src}")
        return 2
    sys.path.insert(0, str(src))
    # Everything the run and its child processes write stays in the checkout.
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)

    import importlib

    from ledger.host import Skip, adopt_orphans, host_stamp, reap_children, require_cores
    from ledger.metrics import metric_table

    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    adopt_orphans()
    try:
        require_cores(2)
        workload = importlib.import_module(f"ledger.{WORKLOADS[args.workload]}")
        result = workload.run(args.seed, args.seconds, bool(args.trace), workdir)
    except Skip as exc:
        print(f"skipped: {exc}")
        return 2
    finally:
        # No process the run started outlives it, on any path out.
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = metric_table(result.metrics, bool(args.trace))
    stamp = host_stamp()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    if result.tracer is not None:
        result.tracer.write_jsonl(OUT / f"trace-{tag}.jsonl")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": stamp, "attempted": result.attempted,
              "failed": result.failed, "metrics": result.metrics, "notes": result.notes}
    (OUT / f"result-{tag}.json").write_text(json.dumps(_jsonable(record), indent=1))

    print(f"{args.workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}")
    for name, entry in metrics.items():
        print(f"  {name:28s} {entry['value']:14.6g} {entry['unit']}")
    for key, value in result.notes.items():
        if isinstance(value, (int, float, str)):
            print(f"  note {key:23s} {value}")
    print("host: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
