"""RPR105 — seed-provenance taint analysis.

Every npz the repo publishes should be derivable from an explicit
seed; an artifact computed from an *unseeded* RNG stream is
unreproducible by construction.  This analysis tracks RNG taint from
sources to artifact sinks, across module boundaries:

* **unseeded sources** — ``np.random.default_rng()`` with no argument,
  ``np.random.RandomState()`` with no argument, and legacy module-level
  draws (``np.random.normal(...)``, ``np.random.rand(...)``, ...);
* **seeded sources** — ``default_rng(seed)``, ``RandomState(seed)``, and
  the project's own :func:`repro.utils.rng.as_generator` /
  ``fallback_rng`` / ``spawn_rngs`` (``as_generator(None)`` falls back
  to ``DEFAULT_SEED``, so even the None path is deterministic);
* **sinks** — :func:`repro.utils.artifacts.atomic_write_npz`,
  ``data.io.save_samples``, ``core.zoo.save_model``, and raw
  ``np.savez*`` calls.

Taint propagates through arithmetic, through method calls on a tainted
generator (``rng.normal(...)`` is as tainted as ``rng``), and through
project-function calls (the callee is re-interpreted with the caller's
taint bound to its parameters, memoised per taint signature).
Parameters are assumed clean at the top level — the finding lands on
whichever caller actually feeds an unseeded stream into a sink path.
Each sink call site also contributes a row to the provenance table the
CLI publishes in JSON output: ``seeded`` / ``unseeded`` / ``unknown``.
"""

from __future__ import annotations

import ast

from ..callgraph import CallGraph
from ..findings import Finding
from ..project import FunctionInfo, Project, dotted_name
from ..registry import rule

__all__ = ["SeedTaintAnalysis"]

CLEAN = 0      # no RNG involvement proven
SEEDED = 1     # derived from an explicitly seeded stream
UNSEEDED = 2   # derived from an unseeded stream

_SEEDED_FACTORIES = {
    "repro.utils.rng.as_generator", "repro.utils.rng.fallback_rng",
    "repro.utils.rng.spawn_rngs",
}
_SEEDED_TAILS = {"as_generator", "fallback_rng", "spawn_rngs"}
_RNG_FACTORY_TAILS = {"default_rng", "RandomState", "Generator", "PCG64",
                      "SeedSequence", "Philox", "SFC64"}
_LEGACY_DRAWS = {
    "rand", "randn", "random", "normal", "uniform", "randint", "choice",
    "permutation", "standard_normal", "random_sample", "shuffle",
    "exponential", "poisson", "beta", "gamma",
}
_SINK_QUALS = {
    "repro.utils.artifacts.atomic_write_npz",
    "repro.data.io.save_samples",
    "repro.core.zoo.save_model",
}
_SINK_TAILS = {"atomic_write_npz", "save_samples", "save_model",
               "savez", "savez_compressed"}
_MAX_DEPTH = 8


@rule("RPR105", "seed-provenance", "artifact writes fed by unseeded RNG streams")
class SeedTaintAnalysis:
    """Taint RNG streams to artifact sinks; ``graph`` goes unused."""

    def __init__(self, project: Project, graph: CallGraph):
        self.project = project
        self.findings: list[Finding] = []
        self.provenance: dict[tuple[str, int], dict] = {}
        self._memo: dict[tuple, int] = {}
        self._stack: set[tuple] = set()
        self._reported: set[tuple] = set()

    # -- public --------------------------------------------------------
    def run(self) -> list[Finding]:
        for fn in list(self.project.iter_functions()):
            self._interp(fn, {}, depth=0)
        return self.findings

    def provenance_rows(self) -> list[dict]:
        return [self.provenance[key] for key in sorted(self.provenance)]

    # -- classification ------------------------------------------------
    def _is_np_random(self, fn: FunctionInfo, node: ast.expr) -> bool:
        name = dotted_name(node) or ""
        if ".random." in f".{name}." or name.startswith("random."):
            head = name.split(".")[0]
            target = fn.module.imports.get(head, head)
            return target in ("numpy", "np") or head in ("np", "numpy")
        return False

    def _source_taint(self, fn: FunctionInfo, call: ast.Call,
                      qual: str | None, tail: str) -> int | None:
        """Taint when ``call`` is an RNG source, else None."""
        if qual in _SEEDED_FACTORIES or tail in _SEEDED_TAILS:
            return SEEDED
        if tail in _RNG_FACTORY_TAILS:
            seeded = bool(call.args) or any(
                kw.arg in ("seed", "key") for kw in call.keywords)
            return SEEDED if seeded else UNSEEDED
        if tail in _LEGACY_DRAWS and self._is_np_random(fn, call.func):
            return UNSEEDED  # np.random.normal(...): hidden global stream
        return None

    def _is_sink(self, qual: str | None, tail: str) -> bool:
        return qual in _SINK_QUALS or tail in _SINK_TAILS

    # -- findings ------------------------------------------------------
    def _record_sink(self, fn: FunctionInfo, call: ast.Call, tail: str,
                     taint: int, origin: tuple | None) -> None:
        key = (fn.module.path, call.lineno)
        status = {CLEAN: "unknown", SEEDED: "seeded", UNSEEDED: "unseeded"}[taint]
        row = self.provenance.get(key)
        if row is None or taint > {"unknown": CLEAN, "seeded": SEEDED,
                                   "unseeded": UNSEEDED}[row["status"]]:
            self.provenance[key] = {
                "sink": tail, "path": fn.module.path, "line": call.lineno,
                "status": status,
                "source": (f"{origin[0]}:{origin[1]}" if origin else None),
            }
        if taint != UNSEEDED or fn.module.zone == "test":
            return
        rkey = ("RPR105", fn.module.path, call.lineno)
        if rkey in self._reported:
            return
        self._reported.add(rkey)
        where = f" (stream created at {origin[0]}:{origin[1]})" if origin else ""
        self.findings.append(fn.module.finding(
            "RPR105", call,
            f"artifact write {tail}() receives data derived from an "
            f"unseeded RNG stream{where}; thread an explicit seed "
            f"(as_generator/default_rng(seed)) so the artifact is "
            f"reproducible",
        ))

    # -- interpretation ------------------------------------------------
    def _interp(self, fn: FunctionInfo, bindings: dict[str, tuple], depth: int) -> tuple:
        """Returns the (taint, origin) of ``fn``'s return value."""
        key = (fn.qual, tuple(sorted(bindings.items())))
        if key in self._memo:
            return self._memo[key]
        if key in self._stack or depth > _MAX_DEPTH:
            return (CLEAN, None)
        self._stack.add(key)
        env: dict[str, tuple] = dict(bindings)
        returns: list[tuple] = []
        try:
            self._exec_block(fn, fn.node.body, env, returns, depth)
        finally:
            self._stack.discard(key)
        result = (CLEAN, None)
        for taint in returns:
            if taint[0] > result[0]:
                result = taint
        self._memo[key] = result
        return result

    def _exec_block(self, fn, stmts, env, returns, depth) -> None:
        for stmt in stmts:
            self._exec_stmt(fn, stmt, env, returns, depth)

    def _exec_stmt(self, fn, stmt, env, returns, depth) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self._eval(fn, stmt.value, env, depth)
            for target in stmt.targets:
                self._bind(target, taint, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self._eval(fn, stmt.value, env, depth), env)
        elif isinstance(stmt, ast.AugAssign):
            left = self._lookup(stmt.target, env)
            right = self._eval(fn, stmt.value, env, depth)
            self._bind(stmt.target, max(left, right, key=lambda t: t[0]), env)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                returns.append(self._eval(fn, stmt.value, env, depth))
        elif isinstance(stmt, ast.Expr):
            self._eval(fn, stmt.value, env, depth)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(fn, stmt.test, env, depth)
            self._exec_block(fn, stmt.body, env, returns, depth)
            self._exec_block(fn, stmt.orelse, env, returns, depth)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            taint = self._eval(fn, stmt.iter, env, depth)
            self._bind(stmt.target, taint, env)  # iterating spawn_rngs etc.
            self._exec_block(fn, stmt.body, env, returns, depth)
            self._exec_block(fn, stmt.orelse, env, returns, depth)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self._eval(fn, item.context_expr, env, depth)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, taint, env)
            self._exec_block(fn, stmt.body, env, returns, depth)
        elif isinstance(stmt, ast.Try):
            self._exec_block(fn, stmt.body, env, returns, depth)
            for handler in stmt.handlers:
                self._exec_block(fn, handler.body, env, returns, depth)
            self._exec_block(fn, stmt.orelse, env, returns, depth)
            self._exec_block(fn, stmt.finalbody, env, returns, depth)

    def _bind(self, target, taint: tuple, env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = taint
        elif isinstance(target, ast.Attribute):
            name = dotted_name(target)
            if name and name.startswith("self."):
                env[name] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, taint, env)

    def _lookup(self, node, env) -> tuple:
        if isinstance(node, ast.Name):
            return env.get(node.id, (CLEAN, None))
        if isinstance(node, ast.Attribute):
            name = dotted_name(node)
            if name and name in env:
                return env[name]
        return (CLEAN, None)

    def _eval(self, fn, node, env, depth) -> tuple:
        if isinstance(node, (ast.Name, ast.Attribute)):
            found = self._lookup(node, env)
            if found[0] != CLEAN:
                return found
            if isinstance(node, ast.Attribute):
                return self._eval(fn, node.value, env, depth)
            return found
        if isinstance(node, ast.Call):
            return self._eval_call(fn, node, env, depth)
        if isinstance(node, (ast.BinOp, ast.BoolOp, ast.Compare, ast.IfExp,
                             ast.Tuple, ast.List, ast.Set, ast.Starred,
                             ast.UnaryOp, ast.Subscript, ast.JoinedStr)):
            worst = (CLEAN, None)
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.expr, ast.keyword)):
                    expr = child.value if isinstance(child, ast.keyword) else child
                    taint = self._eval(fn, expr, env, depth)
                    if taint[0] > worst[0]:
                        worst = taint
            return worst
        if isinstance(node, ast.Dict):
            worst = (CLEAN, None)
            for value in node.values:
                if value is None:
                    continue
                taint = self._eval(fn, value, env, depth)
                if taint[0] > worst[0]:
                    worst = taint
            return worst
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            inner = dict(env)
            for gen in node.generators:
                self._bind(gen.target, self._eval(fn, gen.iter, inner, depth), inner)
            if isinstance(node, ast.DictComp):
                return self._eval(fn, node.value, inner, depth)
            return self._eval(fn, node.elt, inner, depth)
        return (CLEAN, None)

    def _eval_call(self, fn, call: ast.Call, env, depth) -> tuple:
        arg_taints = [self._eval(fn, a, env, depth) for a in call.args]
        kw_taints = {kw.arg: self._eval(fn, kw.value, env, depth)
                     for kw in call.keywords if kw.arg}
        worst = (CLEAN, None)
        for taint in list(arg_taints) + list(kw_taints.values()):
            if taint[0] > worst[0]:
                worst = taint

        name = dotted_name(call.func) or ""
        tail = name.split(".")[-1]
        cls = self.project.class_of(fn)
        qual = self.project.canonical(self.project.resolve_call(fn.module, call.func, cls))

        # RNG sources override argument taint.
        source = self._source_taint(fn, call, qual, tail)
        if source is not None:
            origin = (fn.module.path, call.lineno) if source == UNSEEDED else None
            return (source, origin)

        # Method call on a tainted receiver: rng.normal(...) etc.
        if isinstance(call.func, ast.Attribute):
            recv = self._eval(fn, call.func.value, env, depth)
            if recv[0] > worst[0]:
                worst = recv

        # Sinks: report and record provenance.
        if self._is_sink(qual, tail):
            self._record_sink(fn, call, tail, worst[0], worst[1])

        # Project functions: propagate taint into the callee.
        target = self.project.function_for_qual(qual)
        if target is not None and target.node is not fn.node \
                and qual not in self.project.classes:
            params = [p for p in target.params if p != "self"]
            bindings: dict[str, tuple] = {}
            for i, taint in enumerate(arg_taints):
                if taint[0] != CLEAN and i < len(params):
                    bindings[params[i]] = taint
            for kw_name, taint in kw_taints.items():
                if taint[0] != CLEAN and kw_name in params:
                    bindings[kw_name] = taint
            if bindings:
                result = self._interp(target, bindings, depth + 1)
                if result[0] > worst[0]:
                    worst = result
        return worst
