"""RPR003 — reproducibility: every random stream must be explicitly seeded.

The paper's separation/Lyapunov analyses (and run-to-run comparable
benchmarks) require bit-reproducible forwards; an unseeded generator
destroys that silently.  Flags:

* ``np.random.default_rng()`` (and ``default_rng()`` imported from
  ``numpy.random``) called without a seed argument, and
* any call into the legacy global-state API (``np.random.rand``,
  ``np.random.seed``, ``np.random.normal``, …), whose hidden module-level
  state is shared across threads and call sites.

Test code is exempt (fixtures seed at the fixture level).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..project import ModuleInfo, dotted_name
from ..registry import TEST_ZONE, rule
from ._util import names_from_import

_LEGACY = {
    "seed", "rand", "randn", "random", "random_sample", "ranf", "sample",
    "standard_normal", "normal", "uniform", "randint", "random_integers",
    "choice", "permutation", "shuffle", "bytes", "beta", "binomial",
    "exponential", "gamma", "poisson",
}


@rule(
    "RPR003",
    "reproducibility",
    "unseeded default_rng() and legacy np.random global-state calls make runs "
    "non-reproducible; pass an explicit seed or Generator",
)
def check_reproducibility(ctx: ModuleInfo) -> Iterator[Finding]:
    if ctx.zone == TEST_ZONE:
        return
    local_default_rng = names_from_import(ctx.nodes, "numpy.random")
    for node in ctx.nodes:
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name is None:
            continue
        parts = name.split(".")
        is_np_random = len(parts) == 3 and parts[0] in ("np", "numpy") and parts[1] == "random"
        if (is_np_random and parts[2] == "default_rng") or (
            len(parts) == 1 and parts[0] in local_default_rng and parts[0] == "default_rng"
        ):
            seeded = bool(node.args) or any(kw.arg == "seed" for kw in node.keywords)
            if not seeded:
                yield ctx.finding(
                    "RPR003", node,
                    f"{name}() without a seed draws OS entropy; pass an explicit "
                    f"seed (or thread a Generator through)",
                )
        elif is_np_random and parts[2] in _LEGACY:
            yield ctx.finding(
                "RPR003", node,
                f"{name} uses numpy's hidden global RNG state; use an explicit "
                f"seeded np.random.Generator instead",
            )
