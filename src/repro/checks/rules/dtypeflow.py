"""RPR101/RPR102 — interprocedural dtype and shape inference.

A flow-sensitive abstract interpreter over the numpy/tensor DSL.  Values
carry an abstract dtype drawn from the lattice::

    any
     ├── f32  f64  c64  c128  int  bool
     └── weak           (python scalar literals, NEP-50 weak scalars)

plus an optional concrete shape tuple and an *origin* (module, line)
recording where a float32 value was established.  Every project function
is interpreted once with unconstrained parameters; calls into other
project functions recurse with the caller's abstract arguments
(memoised per dtype/origin signature), so a float32 array created in
module A is still known to be float32 when module B's callee runs it
through ``np.fft`` two calls later — the cross-module widening RPR001
cannot see.

Findings:

* **RPR101** — a value statically known float32/complex64 is *implicitly*
  widened (``np.fft`` promotion, mixed f32×f64 arithmetic) in a module
  different from the one that established the narrow dtype.  Explicit
  widening (``astype``, ``np.float64(...)``, ``dtype=`` kwargs) is
  intentional and never flagged; solver-zone sites (``ns``/``ns3d``/
  ``lbm``) are float64 by design and exempt.
* **RPR102** — two operands with fully-concrete inferred shapes meet an
  elementwise op they cannot broadcast under, or a matmul with
  mismatched inner dimensions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from ..callgraph import CallGraph
from ..findings import Finding
from ..project import FunctionInfo, Project, dotted_name
from ..registry import rule

__all__ = ["DtypeShapeAnalysis", "Abstract"]

ANY = "any"
WEAK = "weak"

_WIDE_OF = {"f32": "f64", "c64": "c128"}
_COMPLEX_OF = {"f32": "c64", "f64": "c128", "c64": "c64", "c128": "c128"}
_REAL_OF = {"c64": "f32", "c128": "f64", "f32": "f32", "f64": "f64"}

# numpy dtype spellings -> abstract dtype
_DTYPE_NAMES = {
    "float32": "f32", "float64": "f64", "single": "f32", "double": "f64",
    "complex64": "c64", "complex128": "c128",
    "int8": "int", "int16": "int", "int32": "int", "int64": "int",
    "uint8": "int", "uint32": "int", "uint64": "int", "intp": "int",
    "bool_": "bool", "bool": "bool", "float_": "f64",
}

_NP_FFT_FORWARD = {"fft", "fft2", "fftn", "rfft", "rfft2", "rfftn", "hfft", "ihfft"}
_NP_FFT_INVERSE = {"ifft", "ifft2", "ifftn", "irfft", "irfft2", "irfftn"}
_F64_FACTORIES = {"linspace", "arange", "eye", "meshgrid", "indices", "fromfunction"}
_ARRAY_FACTORIES = {"zeros", "ones", "empty", "full"}
_LIKE_FACTORIES = {"zeros_like", "ones_like", "empty_like", "full_like"}
_PASSTHROUGH_CALLS = {
    "abs", "absolute", "real", "imag", "conj", "conjugate", "copy",
    "ascontiguousarray", "squeeze", "ravel", "flatten", "transpose",
    "sum", "mean", "max", "min", "sqrt", "exp", "log", "tanh", "sin", "cos",
    "clip", "where", "maximum", "minimum", "stack", "concatenate", "pad",
    "roll", "flip", "moveaxis", "swapaxes", "broadcast_to",
}
# Project-DSL wrappers that preserve their first argument's dtype/shape.
_WRAPPER_TAILS = {"Tensor"}

_MAX_DEPTH = 8


@dataclass(frozen=True)
class Abstract:
    """Abstract value: dtype + optional concrete shape + f32 origin."""

    dtype: str = ANY
    shape: tuple | None = None
    origin: tuple | None = None     # (module_name, line) establishing f32/c64

    def with_dtype(self, dtype: str, origin=None) -> "Abstract":
        return Abstract(dtype=dtype, shape=self.shape,
                        origin=origin if origin is not None else
                        (self.origin if dtype in ("f32", "c64") else None))


TOP = Abstract()


def join(a: Abstract, b: Abstract) -> Abstract:
    dtype = a.dtype if a.dtype == b.dtype else ANY
    shape = a.shape if a.shape == b.shape else None
    origin = a.origin if a.origin == b.origin else None
    return Abstract(dtype, shape, origin)


def _broadcastable(s1: tuple, s2: tuple) -> bool:
    for d1, d2 in zip(reversed(s1), reversed(s2)):
        if d1 != d2 and d1 != 1 and d2 != 1:
            return False
    return True


def _promote(a: str, b: str) -> tuple[str, bool]:
    """NEP-50-style promotion; returns (result, implicitly_widened_narrow)."""
    if ANY in (a, b):
        return ANY, False
    if a == WEAK:
        return b, False
    if b == WEAK:
        return a, False
    if a == b:
        return a, False
    pair = {a, b}
    if pair == {"f32", "f64"}:
        return "f64", True
    if pair == {"f32", "c64"}:
        return "c64", False
    if pair == {"f32", "c128"} or pair == {"c64", "f64"} or pair == {"c64", "c128"}:
        return "c128", True
    if pair == {"f64", "c128"}:
        return "c128", False
    if "int" in pair or "bool" in pair:
        other = (pair - {"int", "bool"}) or {"int"}
        return next(iter(other)), False
    return ANY, False


@rule("RPR101", "dtype-widening", "cross-module implicit f32→f64/c128 widening")
@rule("RPR102", "shape-contract", "statically provable shape mismatches")
class DtypeShapeAnalysis:
    """Run the abstract interpreter over every project function.

    The interpreter follows calls itself, so ``graph`` goes unused.
    """

    def __init__(self, project: Project, graph: CallGraph):
        self.project = project
        self.findings: list[Finding] = []
        self._memo: dict[tuple, Abstract] = {}
        self._stack: set[tuple] = set()
        self._reported: set[tuple] = set()

    # -- public --------------------------------------------------------
    def run(self) -> list[Finding]:
        for fn in list(self.project.iter_functions()):
            self._interp(fn, {}, depth=0)
        return self.findings

    # -- findings ------------------------------------------------------
    def _report_widening(self, fn: FunctionInfo, node: ast.AST,
                         value: Abstract, produced: str, what: str) -> None:
        if value.origin is None:
            return
        origin_module, origin_line = value.origin
        if origin_module == fn.module.name:
            return  # same-module widening is RPR001's per-file territory
        if fn.module.zone in ("solver", "test"):
            return  # float64 by design / test scaffolding
        key = ("RPR101", fn.module.path, getattr(node, "lineno", 0), origin_module)
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(fn.module.finding(
            "RPR101", node,
            f"{value.dtype} value established in {origin_module}:{origin_line} "
            f"is implicitly widened to {produced} by {what} "
            f"(cross-module; keep the pipeline narrow or widen explicitly "
            f"with astype)",
        ))

    def _report_shape(self, fn: FunctionInfo, node: ast.AST,
                      s1: tuple, s2: tuple, what: str) -> None:
        if fn.module.zone == "test":
            return
        key = ("RPR102", fn.module.path, getattr(node, "lineno", 0))
        if key in self._reported:
            return
        self._reported.add(key)
        self.findings.append(fn.module.finding(
            "RPR102", node,
            f"shape contract violated: {what} with inferred shapes {s1} and {s2}",
        ))

    # -- interpretation ------------------------------------------------
    def _argsig(self, env: dict[str, Abstract]) -> tuple:
        return tuple(sorted(
            (name, v.dtype, v.origin[0] if v.origin else None, v.shape)
            for name, v in env.items()
        ))

    def _interp(self, fn: FunctionInfo, bindings: dict[str, Abstract],
                depth: int) -> Abstract:
        key = (fn.qual, self._argsig(bindings))
        if key in self._memo:
            return self._memo[key]
        if key in self._stack or depth > _MAX_DEPTH:
            return TOP
        self._stack.add(key)
        env: dict[str, Abstract] = dict(bindings)
        returns: list[Abstract] = []
        try:
            self._exec_block(fn, fn.node.body, env, returns, depth)
        finally:
            self._stack.discard(key)
        result = returns[0] if returns else TOP
        for other in returns[1:]:
            result = join(result, other)
        self._memo[key] = result
        return result

    def _exec_block(self, fn, stmts, env, returns, depth) -> None:
        for stmt in stmts:
            self._exec_stmt(fn, stmt, env, returns, depth)

    def _exec_stmt(self, fn, stmt, env, returns, depth) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(fn, stmt.value, env, depth)
            for target in stmt.targets:
                self._bind(target, value, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self._eval(fn, stmt.value, env, depth), env)
        elif isinstance(stmt, ast.AugAssign):
            left = self._lookup(stmt.target, env)
            right = self._eval(fn, stmt.value, env, depth)
            result = self._binop_result(fn, stmt, left, right)
            self._bind(stmt.target, result, env)
        elif isinstance(stmt, ast.Return):
            returns.append(self._eval(fn, stmt.value, env, depth)
                           if stmt.value is not None else TOP)
        elif isinstance(stmt, ast.Expr):
            self._eval(fn, stmt.value, env, depth)
        elif isinstance(stmt, ast.If):
            self._eval(fn, stmt.test, env, depth)
            env_true, env_false = dict(env), dict(env)
            self._exec_block(fn, stmt.body, env_true, returns, depth)
            self._exec_block(fn, stmt.orelse, env_false, returns, depth)
            self._join_into(env, env_true, env_false)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._eval(fn, stmt.iter, env, depth)
            self._bind(stmt.target, TOP, env)
            body_env = dict(env)
            self._exec_block(fn, stmt.body, body_env, returns, depth)
            self._exec_block(fn, stmt.orelse, body_env, returns, depth)
            self._join_into(env, env, body_env)
        elif isinstance(stmt, ast.While):
            self._eval(fn, stmt.test, env, depth)
            body_env = dict(env)
            self._exec_block(fn, stmt.body, body_env, returns, depth)
            self._join_into(env, env, body_env)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self._eval(fn, item.context_expr, env, depth)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value, env)
            self._exec_block(fn, stmt.body, env, returns, depth)
        elif isinstance(stmt, ast.Try):
            body_env = dict(env)
            self._exec_block(fn, stmt.body, body_env, returns, depth)
            for handler in stmt.handlers:
                handler_env = dict(env)
                self._exec_block(fn, handler.body, handler_env, returns, depth)
                self._join_into(body_env, body_env, handler_env)
            self._exec_block(fn, stmt.orelse, body_env, returns, depth)
            self._exec_block(fn, stmt.finalbody, body_env, returns, depth)
            env.clear()
            env.update(body_env)
        # class/function defs, imports, pass, raise, etc.: no dataflow

    @staticmethod
    def _join_into(env, a, b) -> None:
        merged = {}
        for name in set(a) | set(b):
            merged[name] = join(a.get(name, TOP), b.get(name, TOP))
        env.clear()
        env.update(merged)

    def _bind(self, target, value: Abstract, env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = value
        elif isinstance(target, ast.Attribute):
            name = dotted_name(target)
            if name and name.startswith("self."):
                env[name] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, TOP, env)

    def _lookup(self, node, env) -> Abstract:
        if isinstance(node, ast.Name):
            return env.get(node.id, TOP)
        if isinstance(node, ast.Attribute):
            name = dotted_name(node)
            if name and name in env:
                return env[name]
        return TOP

    # -- expressions ---------------------------------------------------
    def _eval(self, fn, node, env, depth) -> Abstract:
        if isinstance(node, ast.Name):
            return env.get(node.id, TOP)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float, complex, bool)):
                return Abstract(WEAK)
            return TOP
        if isinstance(node, ast.Attribute):
            name = dotted_name(node)
            if name and name in env:
                return env[name]
            if isinstance(node.value, ast.AST) and node.attr in ("T", "real", "imag"):
                base = self._eval(fn, node.value, env, depth)
                if node.attr == "T" and base.shape is not None:
                    return Abstract(base.dtype, tuple(reversed(base.shape)), base.origin)
                if node.attr in ("real", "imag"):
                    return base.with_dtype(_REAL_OF.get(base.dtype, base.dtype))
                return base
            return TOP
        if isinstance(node, ast.BinOp):
            left = self._eval(fn, node.left, env, depth)
            right = self._eval(fn, node.right, env, depth)
            return self._binop_result(fn, node, left, right)
        if isinstance(node, ast.UnaryOp):
            return self._eval(fn, node.operand, env, depth)
        if isinstance(node, ast.Call):
            return self._eval_call(fn, node, env, depth)
        if isinstance(node, ast.Subscript):
            base = self._eval(fn, node.value, env, depth)
            return Abstract(base.dtype, None, base.origin)
        if isinstance(node, ast.IfExp):
            return join(self._eval(fn, node.body, env, depth),
                        self._eval(fn, node.orelse, env, depth))
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self._eval(fn, elt, env, depth)
            return TOP
        if isinstance(node, ast.Compare):
            self._eval(fn, node.left, env, depth)
            for comp in node.comparators:
                self._eval(fn, comp, env, depth)
            return Abstract("bool")
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._eval(fn, value, env, depth)
            return TOP
        return TOP

    def _binop_result(self, fn, node, left: Abstract, right: Abstract) -> Abstract:
        op = getattr(node, "op", None)
        if isinstance(op, ast.MatMult):
            if (left.shape is not None and right.shape is not None
                    and len(left.shape) >= 2 and len(right.shape) >= 2
                    and left.shape[-1] != right.shape[-2]):
                self._report_shape(fn, node, left.shape, right.shape,
                                   "matmul inner dimensions differ")
            dtype, widened = _promote(left.dtype, right.dtype)
            if widened:
                narrow = left if left.dtype in ("f32", "c64") else right
                self._report_widening(fn, node, narrow, dtype, "matmul promotion")
            return Abstract(dtype, None,
                            left.origin if dtype in ("f32", "c64") else None)
        if (left.shape is not None and right.shape is not None
                and not _broadcastable(left.shape, right.shape)):
            self._report_shape(fn, node, left.shape, right.shape,
                               "elementwise op on non-broadcastable operands")
        dtype, widened = _promote(left.dtype, right.dtype)
        if widened:
            narrow = left if left.dtype in ("f32", "c64") else right
            self._report_widening(fn, node, narrow, dtype, "mixed-precision arithmetic")
        shape = left.shape if left.shape == right.shape else None
        origin = (left.origin or right.origin) if dtype in ("f32", "c64") else None
        return Abstract(dtype, shape, origin)

    # -- calls ---------------------------------------------------------
    def _dtype_const(self, fn, node) -> str | None:
        """``np.float32`` / ``"float32"``-style dtype expression -> abstract dtype."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return _DTYPE_NAMES.get(node.value)
        name = dotted_name(node)
        if name:
            return _DTYPE_NAMES.get(name.split(".")[-1])
        return None

    def _const_shape(self, node) -> tuple | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, int):
            return (node.value,)
        if isinstance(node, (ast.Tuple, ast.List)):
            dims = []
            for elt in node.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, int):
                    dims.append(elt.value)
                else:
                    return None
            return tuple(dims)
        return None

    def _eval_call(self, fn, node: ast.Call, env, depth) -> Abstract:
        args = [self._eval(fn, a, env, depth) for a in node.args
                if not isinstance(a, ast.Starred)]
        kwargs = {kw.arg: self._eval(fn, kw.value, env, depth)
                  for kw in node.keywords if kw.arg}
        name = dotted_name(node.func) or ""
        tail = name.split(".")[-1]
        cls = self.project.class_of(fn)
        qual = self.project.canonical(self.project.resolve_call(fn.module, node.func, cls))

        dtype_kw = next((kw.value for kw in node.keywords if kw.arg == "dtype"), None)
        explicit = self._dtype_const(fn, dtype_kw)

        # -- numpy/scipy table -----------------------------------------
        if qual and (qual.startswith("numpy.") or qual.startswith("scipy.")) or \
                name.startswith(("np.", "numpy.", "scipy.", "sfft.", "fft.")):
            base = qual or name
            is_scipy = "scipy" in base or base.startswith(("sfft.", "fft."))
            if tail in _NP_FFT_FORWARD or tail in _NP_FFT_INVERSE:
                arg = args[0] if args else TOP
                if is_scipy:
                    table = _COMPLEX_OF if tail in _NP_FFT_FORWARD else _REAL_OF
                    out = table.get(arg.dtype, ANY)
                    return Abstract(out, None, arg.origin if out in ("f32", "c64") else None)
                out = "c128" if tail in _NP_FFT_FORWARD else "f64"
                if arg.dtype in ("f32", "c64"):
                    self._report_widening(fn, node, arg, out, f"np.fft.{tail} promotion")
                return Abstract(out, None)
            if tail in _ARRAY_FACTORIES:
                shape = self._const_shape(node.args[0]) if node.args else None
                dtype = explicit or "f64"
                origin = ((fn.module.name, node.lineno)
                          if dtype in ("f32", "c64") else None)
                return Abstract(dtype, shape, origin)
            if tail in _LIKE_FACTORIES:
                arg = args[0] if args else TOP
                dtype = explicit or arg.dtype
                return Abstract(dtype, arg.shape,
                                arg.origin if dtype in ("f32", "c64") else None)
            if tail in _F64_FACTORIES:
                return Abstract(explicit or "f64")
            if tail in ("asarray", "array", "ascontiguousarray", "copy"):
                arg = args[0] if args else TOP
                if explicit:
                    origin = ((fn.module.name, node.lineno)
                              if explicit in ("f32", "c64") else None)
                    return Abstract(explicit, arg.shape, origin)
                return arg
            if tail in _DTYPE_NAMES:  # np.float32(x) scalar/array cast
                dtype = _DTYPE_NAMES[tail]
                origin = ((fn.module.name, node.lineno)
                          if dtype in ("f32", "c64") else None)
                return Abstract(dtype, args[0].shape if args else None, origin)
            if tail in ("matmul", "dot", "einsum", "tensordot"):
                dtype = ANY
                if len(args) >= 2:
                    dtype, widened = _promote(args[-2].dtype, args[-1].dtype)
                    if widened:
                        narrow = args[-2] if args[-2].dtype in ("f32", "c64") else args[-1]
                        self._report_widening(fn, node, narrow, dtype,
                                              f"np.{tail} promotion")
                return Abstract(dtype)
            if tail in _PASSTHROUGH_CALLS:
                arg = args[0] if args else TOP
                return Abstract(arg.dtype, None, arg.origin)
            return TOP

        # -- methods on abstract values --------------------------------
        if isinstance(node.func, ast.Attribute):
            recv = self._eval(fn, node.func.value, env, depth)
            method = node.func.attr
            if method == "astype":
                cast = explicit or (self._dtype_const(fn, node.args[0])
                                    if node.args else None)
                if cast:
                    origin = ((fn.module.name, node.lineno)
                              if cast in ("f32", "c64") else None)
                    return Abstract(cast, recv.shape, origin)
                return TOP
            if method == "reshape":
                shape = None
                if len(node.args) == 1:
                    shape = self._const_shape(node.args[0])
                elif node.args:
                    shape = self._const_shape(ast.Tuple(elts=list(node.args)))
                return Abstract(recv.dtype, shape, recv.origin)
            if method in ("numpy", "copy", "detach", "contiguous"):
                return recv
            if method in _PASSTHROUGH_CALLS:
                return Abstract(recv.dtype, None, recv.origin)

        # -- DSL wrappers ----------------------------------------------
        if tail in _WRAPPER_TAILS and args:
            return args[0]

        # -- project functions: recurse --------------------------------
        target = self.project.function_for_qual(qual)
        if target is not None and target.node is not fn.node:
            if qual in self.project.classes:
                return TOP  # constructor: instance value, not an array
            bindings: dict[str, Abstract] = {}
            params = [p for p in target.params if p != "self"]
            for i, value in enumerate(args):
                if i < len(params):
                    bindings[params[i]] = value
            for kw_name, value in kwargs.items():
                if kw_name in params:
                    bindings[kw_name] = value
            # Drop uninformative bindings so call sites with unknown
            # args share one memo entry per callee.
            bindings = {k: v for k, v in bindings.items()
                        if v.dtype != ANY or v.shape is not None}
            return self._interp(target, bindings, depth + 1)
        return TOP
