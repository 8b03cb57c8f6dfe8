"""repro.checks — custom static analysis + runtime sanitizers.

Two complementary halves:

* **Static** (stdlib ``ast``, zero dependencies): one engine parses the
  requested files once into a :class:`Project`, runs the per-file rules
  (RPR001–RPR011) over each file and the whole-program analyses
  (RPR101–RPR105: dtype/shape flow, lock-aware races, seed provenance)
  over the project and its call graph, then filters every finding
  through per-line suppression comments (``# repro: ignore[RPR001]``)
  and one committed baseline.  ``repro check`` is its CLI — see
  :mod:`repro.checks.cli`.
* **Runtime**: :func:`dtype_sanitizer`, a context manager asserting that
  no tensor op silently widens float32 inputs to float64/complex128.

Typical use::

    from repro.checks import check_paths, load_baseline
    result = check_paths(["src"], baseline=load_baseline("checks-baseline.json"))
    assert result.ok, result.findings

    from repro.checks import dtype_sanitizer
    with dtype_sanitizer():
        model(Tensor(window.astype(np.float32)))
"""

from .baseline import Baseline, load_baseline, prune_baseline, write_baseline
from .callgraph import build_callgraph
from .engine import check_paths
from .findings import CheckResult, Finding
from .project import ModuleInfo, Project, classify_zone, iter_python_files
from .registry import RuleSpec, all_rules, get_rule, rule
from .sanitizer import DtypePromotionError, SanitizerReport, dtype_sanitizer

__all__ = [
    "Baseline", "load_baseline", "prune_baseline", "write_baseline",
    "build_callgraph", "check_paths",
    "CheckResult", "Finding",
    "ModuleInfo", "Project", "classify_zone", "iter_python_files",
    "RuleSpec", "all_rules", "get_rule", "rule",
    "DtypePromotionError", "SanitizerReport", "dtype_sanitizer",
]
