"""Static-analyzer cost probe — pins the CI < 30 s budget.

Times ``repro check`` over the full ``src/repro`` tree, broken down by
stage (parse + symbol table, per-file rules, call graph, and each of the
three whole-program analyses), and records peak RSS so a memoization
regression in the abstract interpreters shows up as a number, not a CI
timeout.  The full pipeline is one :func:`repro.checks.check_paths`
call: every file parsed once, every rule and analysis run, one
suppression and baseline filter.  CI treats a full run above
``BUDGET_S`` as a regression::

    cd benchmarks && PYTHONPATH=../src python bench_analyze.py
"""

import resource
import time
from pathlib import Path

from repro.checks import Project, all_rules, build_callgraph, check_paths, load_baseline

REPO_ROOT = Path(__file__).resolve().parent.parent
REPEATS = 3
BUDGET_S = 30.0  # the CI gate's time budget for the full pipeline


def _best(fn):
    best, result = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run_analyze_probe():
    src = REPO_ROOT / "src"
    specs = all_rules()

    t_load, project = _best(lambda: Project.load([src], root=REPO_ROOT))
    t_rules, _ = _best(lambda: [f for module in project.files for spec in specs
                                if spec.per_file for f in spec.check(module)])
    t_graph, graph = _best(lambda: build_callgraph(project))
    analyses = {spec.check.__name__: spec.check for spec in specs if not spec.per_file}
    t_analyses = {name: _best(lambda: cls(project, graph).run())[0]
                  for name, cls in analyses.items()}

    baseline = load_baseline(REPO_ROOT / "checks-baseline.json")
    t_full, result = _best(lambda: check_paths([src], baseline=baseline, root=REPO_ROOT))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stats = result.graph.stats()
    print(f"src/repro: {result.n_files} files, "
          f"{stats['nodes']} call-graph nodes, {stats['edges']} edges, "
          f"{stats['concurrent']} concurrency-reachable (best of {REPEATS}):")
    print(f"  parse + symbols   {t_load * 1e3:8.1f} ms")
    print(f"  per-file rules    {t_rules * 1e3:8.1f} ms")
    print(f"  call graph        {t_graph * 1e3:8.1f} ms")
    print(f"  dtype/shape flow  {t_analyses['DtypeShapeAnalysis'] * 1e3:8.1f} ms")
    print(f"  race analysis     {t_analyses['RaceAnalysis'] * 1e3:8.1f} ms")
    print(f"  seed taint        {t_analyses['SeedTaintAnalysis'] * 1e3:8.1f} ms")
    print(f"  full pipeline     {t_full * 1e3:8.1f} ms")
    print(f"  peak RSS          {peak_rss_mb:8.1f} MB")
    verdict = "OK" if t_full < BUDGET_S else "OVER BUDGET"
    print(f"  budget {BUDGET_S:.0f}s -> {verdict}")
    if t_full >= BUDGET_S:
        raise SystemExit(1)

    from common import write_results

    write_results("bench_analyze", {
        "n_files": result.n_files,
        "callgraph": stats,
        "load_s": t_load,
        "rules_s": t_rules,
        "callgraph_s": t_graph,
        "dtype_s": t_analyses["DtypeShapeAnalysis"],
        "races_s": t_analyses["RaceAnalysis"],
        "seeds_s": t_analyses["SeedTaintAnalysis"],
        "full_s": t_full,
        "peak_rss_mb": peak_rss_mb,
        "budget_s": BUDGET_S,
        "findings": len(result.findings),
    })


if __name__ == "__main__":
    from common import bench_entry

    bench_entry(run_analyze_probe)
