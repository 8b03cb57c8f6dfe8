"""Differentiable primitives for :class:`repro.tensor.Tensor`.

Every function here takes tensors (or array-likes) and returns a Tensor
wired into the graph.  Each op's gradient is the one VJP registered next
to its forward in the op table; the formulas are standard, and all of
them are checked against central finite differences in the test suite.

The module also installs the arithmetic dunders (``+``, ``*``, ``@``,
slicing, …) on :class:`Tensor` at import time.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

import numpy as np
from scipy import special as _sp_special

from .recording import primitive
from .tensor import Tensor, is_grad_enabled, unbroadcast

__all__ = [
    "add", "sub", "mul", "div", "neg", "pow_", "matmul", "einsum", "channel_linear",
    "exp", "log", "sqrt", "tanh", "sigmoid", "relu", "gelu", "abs_",
    "sin", "cos", "clip",
    "reshape", "transpose", "moveaxis", "getitem", "pad", "concatenate",
    "stack", "sum_", "mean", "var", "maximum", "minimum", "where",
    "broadcast_to", "square", "dot", "roll",
]

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _t(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _is_weak(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def weak_pair(a, b) -> tuple:
    """Apply the weak-scalar rule to a binary-op operand pair.

    A bare Python scalar paired with a tensor becomes a 0-d array of the
    tensor's dtype (NEP-50 weak scalar semantics): ``x32 * 0.5`` stays
    float32 instead of the literal widening the whole pipeline to float64.
    Any other pair is returned unchanged.  Eager coercion and compiled
    plans both resolve their operands through this one rule.
    """
    if isinstance(a, Tensor) and _is_weak(b):
        return a, np.asarray(b, dtype=a.data.dtype)
    if isinstance(b, Tensor) and _is_weak(a):
        return np.asarray(a, dtype=b.data.dtype), b
    return a, b


def _t2(a, b) -> tuple[Tensor, Tensor]:
    """Coerce a binary-op operand pair to tensors (see :func:`weak_pair`)."""
    a, b = weak_pair(a, b)
    return _t(a), _t(b)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------
#
# Every op hands ``Tensor.from_op`` its VJP from the op table, the VJP's
# arguments (operand arrays in signature order, then the static ones) and
# its residuals.  ``vjp(g, *args, res=, needs=, out=)`` returns one
# cotangent per operand, None where ``needs`` is false; VJPs of unary ops
# run only when their operand needs one, so they do not check.

def _add_vjp(g, a, b, *, res=(), needs, out=()) -> tuple:
    return tuple(unbroadcast(g, np.shape(v)) if need else None
                 for v, need in zip((a, b), needs))


@primitive(np.add, arity=2, weak=True, flops=1, vjp=_add_vjp, vjp_out="view")
def add(a, b) -> Tensor:
    a, b = _t2(a, b)
    return Tensor.from_op(np.add(a.data, b.data), (a, b), _add_vjp, (a.data, b.data))


def _sub_vjp(g, a, b, *, res=(), needs, out=()) -> tuple:
    return (unbroadcast(g, np.shape(a)) if needs[0] else None,
            unbroadcast(-g, np.shape(b)) if needs[1] else None)


@primitive(np.subtract, arity=2, weak=True, flops=1, vjp=_sub_vjp, vjp_out="view")
def sub(a, b) -> Tensor:
    a, b = _t2(a, b)
    return Tensor.from_op(np.subtract(a.data, b.data), (a, b), _sub_vjp, (a.data, b.data))


def _mul_vjp(g, a, b, *, res=(), needs, out=()) -> tuple:
    return (unbroadcast(g * b, np.shape(a)) if needs[0] else None,
            unbroadcast(g * a, np.shape(b)) if needs[1] else None)


@primitive(np.multiply, arity=2, weak=True, flops=1, vjp=_mul_vjp)
def mul(a, b) -> Tensor:
    a, b = _t2(a, b)
    return Tensor.from_op(np.multiply(a.data, b.data), (a, b), _mul_vjp, (a.data, b.data))


def _div_vjp(g, a, b, *, res=(), needs, out=()) -> tuple:
    return (unbroadcast(g / b, np.shape(a)) if needs[0] else None,
            unbroadcast(-g * a / (b * b), np.shape(b)) if needs[1] else None)


@primitive(np.divide, arity=2, weak=True, flops=1, vjp=_div_vjp)
def div(a, b) -> Tensor:
    a, b = _t2(a, b)
    return Tensor.from_op(np.divide(a.data, b.data), (a, b), _div_vjp, (a.data, b.data))


def _neg_vjp(g, a, *, res=(), needs, out=()) -> tuple:
    return (-g,)


@primitive(np.negative, flops=1, vjp=_neg_vjp, vjp_out="view")
def neg(a) -> Tensor:
    a = _t(a)
    return Tensor.from_op(np.negative(a.data), (a,), _neg_vjp, (a.data,))


def _pow_vjp(g, a, exponent, *, res=(), needs, out=()) -> tuple:
    exponent = float(exponent)
    return (g * exponent * a ** (exponent - 1.0),)


@primitive(np.power, flops=8, vjp=_pow_vjp)
def pow_(a, exponent: float) -> Tensor:
    """Elementwise power with a *scalar* exponent."""
    a = _t(a)
    exponent = float(exponent)
    return Tensor.from_op(np.power(a.data, exponent), (a,), _pow_vjp, (a.data, exponent))


def _square(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.multiply(x, x, out=out)


def _square_vjp(g, a, *, res=(), needs, out=()) -> tuple:
    return (2.0 * g * a,)


@primitive(_square, flops=1, vjp=_square_vjp)
def square(a) -> Tensor:
    a = _t(a)
    return Tensor.from_op(_square(a.data), (a,), _square_vjp, (a.data,))


def _matmul_vjp(g, a, b, *, res=(), needs, out=()) -> tuple:
    ga = gb = None
    if needs[0]:
        if np.ndim(b) == 1:
            ga = np.multiply.outer(g, b) if np.ndim(a) > 1 else g * b
        else:
            ga = g @ np.swapaxes(b, -1, -2)
        ga = unbroadcast(np.asarray(ga), np.shape(a))
    if needs[1]:
        if np.ndim(a) == 1:
            gb = np.multiply.outer(a, g) if np.ndim(b) > 1 else a * g
        else:
            gb = np.swapaxes(a, -1, -2) @ g
        gb = unbroadcast(np.asarray(gb), np.shape(b))
    return ga, gb


# Kept transient (a fresh result per plan call): BLAS may pick a different
# accumulation path when handed an ``out=`` buffer of unusual layout, and
# matmul is off the FNO hot path anyway.
@primitive(np.matmul, out="fresh", arity=2, weak=True, vjp=_matmul_vjp,
           flops=lambda out, a, b: 2 * np.shape(a)[-1] * out.size)
def matmul(a, b) -> Tensor:
    a, b = _t2(a, b)
    return Tensor.from_op(np.matmul(a.data, b.data), (a, b), _matmul_vjp, (a.data, b.data))


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.asarray(np.vdot(x, y))


def _dot_vjp(g, a, b, *, res=(), needs, out=()) -> tuple:
    return (g * b if needs[0] else None, g * a if needs[1] else None)


@primitive(_dot, out="fresh", arity=2, weak=True, vjp=_dot_vjp)
def dot(a, b) -> Tensor:
    """Inner product of two flattened tensors."""
    a, b = _t2(a, b)
    return Tensor.from_op(_dot(a.data, b.data), (a, b), _dot_vjp, (a.data, b.data))


def _indices(term: str) -> str:
    """Named indices of a subscript term, with any ``...`` ellipsis removed."""
    return term.replace("...", "")


def _parse_einsum(subscripts: str, n_ops: int) -> tuple[list[str], str]:
    if "->" not in subscripts:
        raise ValueError("einsum requires an explicit output, e.g. 'ij,jk->ik'")
    lhs, out = subscripts.replace(" ", "").split("->")
    terms = lhs.split(",")
    if len(terms) != n_ops:
        raise ValueError(f"einsum got {n_ops} operands for {len(terms)} subscript terms")
    for term in terms:
        named = _indices(term)
        if len(set(named)) != len(named):
            raise ValueError("einsum with repeated indices inside one operand is not differentiable here")
        if "..." in term and "..." not in out:
            raise ValueError("einsum ellipsis must also appear in the output term")
    return terms, out


def _einsum_operand_grad(g: np.ndarray, other: np.ndarray, other_term: str, self_term: str,
                         out_subs: str) -> np.ndarray:
    if "..." in self_term or "..." not in out_subs:
        return np.einsum(f"{out_subs},{other_term}->{self_term}", g, other, optimize=True)
    # The output carries broadcast (ellipsis) axes that this operand
    # does not have: route them to the front, then sum them away.
    res = np.einsum(f"{out_subs},{other_term}->...{self_term}", g, other, optimize=True)
    extra = res.ndim - len(_indices(self_term))
    return res.sum(axis=tuple(range(extra))) if extra else res


def _einsum_vjp(g, subscripts, *operands, res=(), needs, out=()) -> tuple:
    terms, out_subs = _parse_einsum(subscripts, len(operands))
    if len(operands) == 1:
        (a,), (ta,) = operands, terms
        kept = [c for c in ta if c in out_subs]
        ga = np.einsum(f"{out_subs}->{''.join(kept)}", g, optimize=True)
        if set(ta) - set(out_subs):
            # Indices summed away: broadcast the cotangent back.
            size_map = dict(zip(ta, np.shape(a)))
            ga = np.broadcast_to(_expand_missing(ga, ta, kept, size_map),
                                 [size_map[c] for c in ta])
        return (np.ascontiguousarray(ga),)
    (a, b), (ta, tb) = operands, terms
    return (_einsum_operand_grad(g, b, tb, ta, out_subs) if needs[0] else None,
            _einsum_operand_grad(g, a, ta, tb, out_subs) if needs[1] else None)


# Registered for tracing only: plans refuse it (see repro.compile.kernels),
# so models built on it (DeepONet) run eagerly.
@primitive(np.einsum, out="fresh", vjp=_einsum_vjp)
def einsum(subscripts: str, *operands) -> Tensor:
    """Differentiable einsum for one or two operands.

    Requires an explicit ``->`` output and no repeated index within a
    single operand (no traces).  The gradient with respect to operand A is
    ``einsum(out_subs [, other_subs] -> A_subs, g [, other])`` — valid as
    long as every index of A appears in the output or the other operand,
    which is checked.
    """
    tensors = [_t(op) for op in operands]
    terms, out_subs = _parse_einsum(subscripts, len(tensors))
    if len(tensors) == 1:
        if "..." in terms[0]:
            raise NotImplementedError("ellipsis is not supported for single-operand einsum gradients")
    else:
        ta, tb = terms
        for term, other in ((ta, tb), (tb, ta)):
            uncovered = set(_indices(term)) - set(_indices(out_subs)) - set(_indices(other))
            if uncovered:
                raise ValueError(f"einsum indices {uncovered} of one operand appear nowhere else; gradient undefined")
    arrays = [t.data for t in tensors]
    return Tensor.from_op(np.einsum(subscripts, *arrays), tuple(tensors), _einsum_vjp,
                          (subscripts, *arrays))


def _channel_linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    batch, cin = x.shape[:2]
    cout = weight.shape[1]
    if out is None:
        out = np.empty((batch, cout) + x.shape[2:], dtype=np.result_type(weight, x))
    out_flat = out.reshape(batch, cout, -1)
    np.matmul(weight.T, x.reshape(batch, cin, -1), out=out_flat)
    if bias is not None:
        out_flat += bias[:, None]
    return out


def _channel_linear_vjp(g, x, weight, bias=None, *, res=(), needs, out=(None,)) -> tuple:
    """Cotangents of :func:`channel_linear`; ``x``'s goes into ``out[0]``."""
    batch, cin = x.shape[:2]
    g_flat = g.reshape(batch, weight.shape[1], -1)
    dx = dw = db = None
    if needs[0]:
        dx = out[0] if out[0] is not None else np.empty(x.shape, dtype=np.result_type(weight, g))
        np.matmul(weight, g_flat, out=dx.reshape(batch, cin, -1))
    if needs[1]:
        # One GEMM per sample against a transposed view, then a sum over
        # the batch: no operand copies, unlike einsum's (i, b*n) reshape.
        dw = np.matmul(x.reshape(batch, cin, -1), g_flat.transpose(0, 2, 1)).sum(axis=0)
    if len(needs) > 2 and needs[2]:
        db = g_flat.sum(axis=(0, 2))
    return dx, dw, db


@primitive(_channel_linear, arity=3, vjp=_channel_linear_vjp, vjp_out="arena",
           flops=lambda out, x, w, bias=None: 2 * x.shape[1] * out.size)
def channel_linear(x, weight, bias=None) -> Tensor:
    """Pointwise channel mix ``y[b,o,...] = sum_i x[b,i,...] w[i,o] (+ bias[o])``.

    Equivalent to ``einsum("bi...,io->bo...", x, w)`` but routed through
    ``np.matmul`` on a ``(B, C, N)`` view, with the bias folded in place
    instead of a separate broadcast add.  GEMM's cache blocking keeps this
    linear in batch size where ``c_einsum``'s channel-strided walk goes
    memory-bound, and because the batch axis stays a pure stack dimension
    the per-sample bits are identical for every batch size, as serving's
    batched = single contract needs.
    """
    x, weight = _t(x), _t(weight)
    bias = _t(bias) if bias is not None else None
    if x.data.ndim < 2 or weight.data.ndim != 2:
        raise ValueError("channel_linear expects x (B, C_in, *grid) and weight (C_in, C_out)")
    if x.data.shape[1] != weight.data.shape[0]:
        raise ValueError(
            f"channel_linear got {x.data.shape[1]} input channels for weight {weight.data.shape}"
        )
    out_channels = weight.data.shape[1]
    if bias is not None and bias.data.shape != (out_channels,):
        raise ValueError(f"channel_linear bias must have shape ({out_channels},)")
    out_data = _channel_linear(x.data, weight.data, None if bias is None else bias.data)
    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor.from_op(out_data, parents, _channel_linear_vjp, (x.data, weight.data))


def _expand_missing(g: np.ndarray, term: str, kept: list[str], size_map: dict[str, int]) -> np.ndarray:
    """Insert singleton axes for indices of ``term`` that were summed away."""
    shape = []
    src_axis = 0
    for c in term:
        if c in kept:
            shape.append(g.shape[src_axis])
            src_axis += 1
        else:
            shape.append(1)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise functions
# ---------------------------------------------------------------------------
#
# ``exp``, ``sqrt``, ``tanh`` and ``sigmoid`` keep their output as the
# VJP's residual (a training plan keeps the output's slot for it).

def _exp_vjp(g, a, *, res, needs, out=()) -> tuple:
    return (g * res[0],)


@primitive(np.exp, flops=8, vjp=_exp_vjp)
def exp(a) -> Tensor:
    a = _t(a)
    out_data = np.exp(a.data)
    return Tensor.from_op(out_data, (a,), _exp_vjp, (a.data,), (out_data,))


def _log_vjp(g, a, *, res=(), needs, out=()) -> tuple:
    return (g / a,)


@primitive(np.log, flops=8, vjp=_log_vjp)
def log(a) -> Tensor:
    a = _t(a)
    return Tensor.from_op(np.log(a.data), (a,), _log_vjp, (a.data,))


def _sqrt_vjp(g, a, *, res, needs, out=()) -> tuple:
    return (g * 0.5 / res[0],)


@primitive(np.sqrt, flops=4, vjp=_sqrt_vjp)
def sqrt(a) -> Tensor:
    a = _t(a)
    out_data = np.sqrt(a.data)
    return Tensor.from_op(out_data, (a,), _sqrt_vjp, (a.data,), (out_data,))


def _tanh_vjp(g, a, *, res, needs, out=()) -> tuple:
    (y,) = res
    return (g * (1.0 - y * y),)


@primitive(np.tanh, flops=8, vjp=_tanh_vjp)
def tanh(a) -> Tensor:
    a = _t(a)
    out_data = np.tanh(a.data)
    return Tensor.from_op(out_data, (a,), _tanh_vjp, (a.data,), (out_data,))


def _sigmoid_vjp(g, a, *, res, needs, out=()) -> tuple:
    (y,) = res
    return (g * y * (1.0 - y),)


@primitive(_sp_special.expit, flops=8, vjp=_sigmoid_vjp)
def sigmoid(a) -> Tensor:
    a = _t(a)
    out_data = _sp_special.expit(a.data)
    return Tensor.from_op(out_data, (a,), _sigmoid_vjp, (a.data,), (out_data,))


def _relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def _relu_vjp(g, a, *, res=(), needs, out=()) -> tuple:
    return (g * (a > 0),)


@primitive(_relu, flops=1, vjp=_relu_vjp)
def relu(a) -> Tensor:
    a = _t(a)
    return Tensor.from_op(_relu(a.data), (a,), _relu_vjp, (a.data,))


def _gelu_cdf(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The standard normal CDF ``0.5 (1 + erf(x/sqrt(2)))``, built in place.

    At serving batch sizes these arrays fall out of cache, so every
    avoided temporary is a real memory-traffic saving.
    """
    cdf = np.divide(x, _SQRT_2, out=out)
    _sp_special.erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return cdf


# float32 GELU: Abramowitz & Stegun 7.1.26, erf(z) = 1 - P(t) exp(-z^2) for
# z >= 0 with t = 1 / (1 + p z), absolute error below 1.5e-7.  Its Horner
# coefficients are scaled by -1/2, so the Horner sum times exp(-x^2/2) is
# minus the normal tail Q(|x|) = 1 - cdf(|x|).
_AS_P = 0.3275911 / _SQRT_2
_AS_HORNER = tuple(-0.5 * a for a in (
    1.061405429, -1.453152027, 1.421413741, -0.284496736, 0.254829592))
_F32_SIGN_BIT = np.uint32(0x80000000)
# Elements per block: three float32 scratch rows plus the x, y and
# derivative blocks (1.5 MiB) stay in a 2 MiB L2 cache, and the ~25
# ufunc calls per block cost under 0.5 ns per element.
_BLOCK = 1 << 16
_scratch = threading.local()


def _scratch_rows() -> np.ndarray:
    """This thread's three float32 scratch rows of ``_BLOCK`` elements."""
    rows = getattr(_scratch, "rows", None)
    if rows is None:
        rows = _scratch.rows = np.empty((3, _BLOCK), np.float32)
    return rows


def _gelu_f32(x: np.ndarray, out: np.ndarray | None = None,
              d: np.ndarray | None = None) -> np.ndarray:
    """float32 GELU into ``out`` and, when given, its derivative into ``d``.

    Runs block by block over this thread's scratch rows, so no temporary
    grows with a contiguous input; ``out`` and ``d`` must be C-contiguous.
    The sign is OR-ed into ``0.5 - Q(|x|)`` as a bit, which is cheaper
    than ``np.copysign``.
    """
    if out is None:
        out = np.empty(x.shape, x.dtype)
    xs, ys = x.reshape(-1), out.reshape(-1)
    ds = None if d is None else d.reshape(-1)
    rows = _scratch_rows()
    # x*x overflows to inf past |x| ~ 1.8e19, where exp(-inf) = 0 is right.
    with np.errstate(over="ignore"):
        for lo in range(0, xs.size, _BLOCK):
            xb = xs[lo:lo + _BLOCK]
            t, e, q = rows[:, :xb.size]
            np.multiply(xb, _AS_P, out=t)
            np.abs(t, out=t)
            t += 1.0
            np.divide(1.0, t, out=t)
            np.multiply(xb, -0.5, out=e)
            e *= xb
            np.exp(e, out=e)
            np.multiply(t, _AS_HORNER[0], out=q)
            for a in _AS_HORNER[1:]:
                q += a
                q *= t
            q *= e
            q += 0.5
            sign = t.view(np.uint32)
            np.bitwise_and(xb.view(np.uint32), _F32_SIGN_BIT, out=sign)
            np.bitwise_or(q.view(np.uint32), sign, out=q.view(np.uint32))
            q += 0.5
            if ds is not None:
                e *= _INV_SQRT_2PI
                e *= xb
                np.add(q, e, out=ds[lo:lo + _BLOCK])
            np.multiply(xb, q, out=ys[lo:lo + _BLOCK])
    return out


def _gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    if x.dtype == np.float32:
        return _gelu_f32(x, out)
    # IEEE multiplication is commutative at the bit level, so ``cdf * x``
    # in place equals the training forward's ``x * cdf``.
    cdf = _gelu_cdf(x, out)
    return np.multiply(cdf, x, out=cdf)


def gelu_keep_derivative(x: np.ndarray, out: np.ndarray | None = None,
                         d: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The training forward of :func:`gelu`: ``(gelu(x), gelu'(x))``.

    The derivative ``cdf + x * pdf(x)`` is the one residual the backward
    reads.  Outside float32 each step is the same elementwise op, in the
    same order, as ``cdf + x * (c * exp(-0.5 * x * x))``, so its bits
    equal that expression's.
    """
    if x.dtype == np.float32:
        d = np.empty(x.shape, x.dtype) if d is None else d
        return _gelu_f32(x, out, d), d
    cdf = _gelu_cdf(x, out)
    t = np.multiply(x, -0.5, out=d)
    np.multiply(t, x, out=t)
    np.exp(t, out=t)
    np.multiply(t, _INV_SQRT_2PI, out=t)
    np.multiply(x, t, out=t)
    np.add(cdf, t, out=t)
    return np.multiply(x, cdf, out=cdf), t


def _gelu_vjp(g, x, *, res, needs=(True,), out=(None,)) -> tuple:
    """``g * gelu'(x)``: one multiply by the derivative the forward kept."""
    (d,) = res
    return (np.multiply(g, d, out=out[0]),)


@primitive(_gelu, flops=12, vjp=_gelu_vjp, vjp_out="arena")
def gelu(a) -> Tensor:
    """Gaussian error linear unit ``0.5 x (1 + erf(x/sqrt(2)))``.

    Exact (``scipy.special.erf``) in float64.  In float32, erf is
    Abramowitz & Stegun 7.1.26: on [-12, 12] and at ±40 the output is
    within 5e-7 and the derivative within 4e-7 of the exact function
    (past |x| ~ 5.5 the float32 CDF is exactly 0 or 1).
    """
    a = _t(a)
    if not (a.requires_grad and is_grad_enabled()):
        # No backward will read the derivative, so skip computing it.
        return Tensor.from_op(_gelu(a.data), (a,), _gelu_vjp, (a.data,))
    out_data, d = gelu_keep_derivative(a.data)
    return Tensor.from_op(out_data, (a,), _gelu_vjp, (a.data,), (d,))


def _abs_vjp(g, a, *, res=(), needs, out=()) -> tuple:
    return (g * np.sign(a),)


@primitive(np.absolute, flops=1, vjp=_abs_vjp)
def abs_(a) -> Tensor:
    a = _t(a)
    return Tensor.from_op(np.absolute(a.data), (a,), _abs_vjp, (a.data,))


def _sin_vjp(g, a, *, res=(), needs, out=()) -> tuple:
    return (g * np.cos(a),)


@primitive(np.sin, flops=8, vjp=_sin_vjp)
def sin(a) -> Tensor:
    a = _t(a)
    return Tensor.from_op(np.sin(a.data), (a,), _sin_vjp, (a.data,))


def _cos_vjp(g, a, *, res=(), needs, out=()) -> tuple:
    return (-g * np.sin(a),)


@primitive(np.cos, flops=8, vjp=_cos_vjp)
def cos(a) -> Tensor:
    a = _t(a)
    return Tensor.from_op(np.cos(a.data), (a,), _cos_vjp, (a.data,))


def _clip_vjp(g, a, lo, hi, *, res=(), needs, out=()) -> tuple:
    return (g * ((a >= lo) & (a <= hi)),)


@primitive(np.clip, flops=2, vjp=_clip_vjp)
def clip(a, lo: float, hi: float) -> Tensor:
    a = _t(a)
    return Tensor.from_op(np.clip(a.data, lo, hi), (a,), _clip_vjp, (a.data, lo, hi))


def _select_vjp(g, mask, a, b, needs) -> tuple:
    """Cotangents of an elementwise choice: ``a`` where ``mask``, else ``b``."""
    return (unbroadcast(g * mask, np.shape(a)) if needs[0] else None,
            unbroadcast(g * ~mask, np.shape(b)) if needs[1] else None)


def _maximum_vjp(g, a, b, *, res=(), needs, out=()) -> tuple:
    return _select_vjp(g, a >= b, a, b, needs)


@primitive(np.maximum, arity=2, weak=True, flops=1, vjp=_maximum_vjp)
def maximum(a, b) -> Tensor:
    a, b = _t2(a, b)
    return Tensor.from_op(np.maximum(a.data, b.data), (a, b), _maximum_vjp, (a.data, b.data))


def _minimum_vjp(g, a, b, *, res=(), needs, out=()) -> tuple:
    return _select_vjp(g, a <= b, a, b, needs)


@primitive(np.minimum, arity=2, weak=True, flops=1, vjp=_minimum_vjp)
def minimum(a, b) -> Tensor:
    a, b = _t2(a, b)
    return Tensor.from_op(np.minimum(a.data, b.data), (a, b), _minimum_vjp, (a.data, b.data))


def _where_vjp(g, cond, a, b, *, res=(), needs, out=()) -> tuple:
    # A plan passes ``cond`` as stored; any nonzero element selects ``a``.
    return (None, *_select_vjp(g, np.asarray(cond, dtype=bool), a, b, needs[1:]))


# A plan passes ``cond`` as stored (float for a tensor); np.where reads
# any nonzero element as true, exactly like the bool cast eager keeps.
@primitive(np.where, out="fresh", arity=3, weak=True, flops=1, vjp=_where_vjp)
def where(cond, a, b) -> Tensor:
    cond = np.asarray(cond.data if isinstance(cond, Tensor) else cond, dtype=bool)
    a, b = _t2(a, b)
    # ``cond`` takes no gradient; ``a`` fills its parent slot, whose
    # cotangent is always None, so the parents line up with the operands.
    return Tensor.from_op(np.where(cond, a.data, b.data), (a, a, b), _where_vjp,
                          (cond, a.data, b.data))


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------
#
# These VJPs read only their operands' shapes (``vjp_out="view"``): a
# training plan hands them shape stand-ins, not the operands' buffers.

def _reshape_vjp(g, a, shape, *, res=(), needs, out=()) -> tuple:
    return (g.reshape(np.shape(a)),)


@primitive(np.reshape, out="view", vjp=_reshape_vjp, vjp_out="view")
def reshape(a, shape) -> Tensor:
    a = _t(a)
    return Tensor.from_op(np.reshape(a.data, shape), (a,), _reshape_vjp, (a.data, shape))


def _transpose_vjp(g, a, axes=None, *, res=(), needs, out=()) -> tuple:
    if axes is None:
        axes = tuple(reversed(range(np.ndim(a))))
    return (g.transpose(np.argsort(tuple(axes))),)


@primitive(np.transpose, out="view", vjp=_transpose_vjp, vjp_out="view")
def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    a = _t(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    axes = tuple(axes)
    return Tensor.from_op(np.transpose(a.data, axes), (a,), _transpose_vjp, (a.data, axes))


def _moveaxis_vjp(g, a, source, destination, *, res=(), needs, out=()) -> tuple:
    return (np.moveaxis(g, destination, source),)


@primitive(np.moveaxis, out="view", vjp=_moveaxis_vjp, vjp_out="view")
def moveaxis(a, source, destination) -> Tensor:
    a = _t(a)
    return Tensor.from_op(np.moveaxis(a.data, source, destination), (a,), _moveaxis_vjp,
                          (a.data, source, destination))


def _getitem(x: np.ndarray, index, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        return np.ascontiguousarray(x[index])
    np.copyto(out, x[index])
    return out


def _getitem_vjp(g, a, index, *, res=(), needs, out=()) -> tuple:
    ga = np.zeros(np.shape(a), dtype=g.dtype)
    np.add.at(ga, index, g)
    return (ga,)


@primitive(_getitem, vjp=_getitem_vjp, vjp_out="view")
def getitem(a, index) -> Tensor:
    a = _t(a)
    return Tensor.from_op(_getitem(a.data, index), (a,), _getitem_vjp, (a.data, index))


def pad_interior(pad_width, shape: tuple[int, ...]) -> tuple[slice, ...]:
    """Where an array of ``shape`` sits inside its constant padding."""
    widths = np.broadcast_to(np.asarray(pad_width), (len(shape), 2))
    return tuple(slice(int(before), int(before) + dim) for (before, _), dim in zip(widths, shape))


def _pad(x: np.ndarray, pad_width, constant_value: float = 0.0,
         out: np.ndarray | None = None) -> np.ndarray:
    """Constant padding.  A given ``out`` must already hold the constant
    outside the interior; plans write it once, when the buffer is made."""
    if out is None:
        widths = np.broadcast_to(np.asarray(pad_width), (x.ndim, 2))
        shape = tuple(int(before) + dim + int(after) for (before, after), dim in zip(widths, x.shape))
        out = np.full(shape, constant_value, dtype=x.dtype)
    np.copyto(out[pad_interior(pad_width, x.shape)], x)
    return out


def _pad_vjp(g, a, pad_width, constant_value=0.0, *, res=(), needs, out=()) -> tuple:
    return (g[pad_interior(pad_width, np.shape(a))],)


@primitive(_pad, vjp=_pad_vjp, vjp_out="view")
def pad(a, pad_width, constant_value: float = 0.0) -> Tensor:
    """Constant-pad; ``pad_width`` follows :func:`numpy.pad` conventions."""
    a = _t(a)
    return Tensor.from_op(_pad(a.data, pad_width, constant_value), (a,), _pad_vjp,
                          (a.data, pad_width))


def _concatenate_vjp(g, tensors, axis=0, *, res=(), needs, out=()) -> tuple:
    """Each operand's cotangent is its slab of ``g`` along ``axis`` (a view)."""
    offsets = np.cumsum([0] + [np.shape(t)[axis] for t in tensors])
    grads = []
    for need, start, stop in zip(needs, offsets[:-1], offsets[1:]):
        idx = [slice(None)] * g.ndim
        idx[axis] = slice(int(start), int(stop))
        grads.append(g[tuple(idx)] if need else None)
    return tuple(grads)


@primitive(np.concatenate, vjp=_concatenate_vjp, vjp_out="view")
def concatenate(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [_t(t) for t in tensors]
    arrays = [t.data for t in tensors]
    return Tensor.from_op(np.concatenate(arrays, axis=axis), tuple(tensors), _concatenate_vjp,
                          (arrays, axis))


def _stack_vjp(g, tensors, axis=0, *, res=(), needs, out=()) -> tuple:
    return tuple(piece if need else None
                 for piece, need in zip(np.moveaxis(g, axis, 0), needs))


@primitive(np.stack, vjp=_stack_vjp, vjp_out="view")
def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [_t(t) for t in tensors]
    arrays = [t.data for t in tensors]
    return Tensor.from_op(np.stack(arrays, axis=axis), tuple(tensors), _stack_vjp, (arrays, axis))


def _roll_vjp(g, a, shift, axis, *, res=(), needs, out=()) -> tuple:
    back = tuple(-s for s in shift) if isinstance(shift, tuple) else -shift
    return (np.roll(g, back, axis=axis),)


@primitive(np.roll, out="fresh", vjp=_roll_vjp, vjp_out="view")
def roll(a, shift, axis) -> Tensor:
    """Periodic roll along ``axis`` (differentiable; adjoint rolls back)."""
    a = _t(a)
    return Tensor.from_op(np.roll(a.data, shift, axis=axis), (a,), _roll_vjp,
                          (a.data, shift, axis))


def _broadcast_to(x: np.ndarray, shape) -> np.ndarray:
    return np.broadcast_to(x, shape).copy()


def _broadcast_to_vjp(g, a, shape, *, res=(), needs, out=()) -> tuple:
    return (unbroadcast(g, np.shape(a)),)


@primitive(_broadcast_to, out="fresh", vjp=_broadcast_to_vjp, vjp_out="view")
def broadcast_to(a, shape) -> Tensor:
    a = _t(a)
    return Tensor.from_op(_broadcast_to(a.data, shape), (a,), _broadcast_to_vjp, (a.data, shape))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def _restore_reduced(g: np.ndarray, in_shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, in_shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(ax % len(in_shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, in_shape)


def _sum(x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    return np.asarray(x.sum(axis=axis, keepdims=keepdims))


def _mean(x: np.ndarray, axis=None, keepdims: bool = False) -> np.ndarray:
    return np.asarray(x.mean(axis=axis, keepdims=keepdims))


def _sum_vjp(g, a, axis=None, keepdims=False, *, res=(), needs, out=()) -> tuple:
    # Materialised: a plan may hand a lone cotangent on as it is, and a
    # zero-stride one would move its consumer's matmul off BLAS.
    return (_restore_reduced(g, np.shape(a), axis, keepdims).copy(),)


@primitive(_sum, out="fresh", vjp=_sum_vjp, vjp_out="view")
def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _t(a)
    return Tensor.from_op(_sum(a.data, axis, keepdims), (a,), _sum_vjp, (a.data, axis, keepdims))


def _mean_vjp(g, a, axis=None, keepdims=False, *, res=(), needs, out=()) -> tuple:
    in_shape = np.shape(a)
    count = np.size(a) if axis is None else np.prod(
        [in_shape[ax % len(in_shape)] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    # The integer count is a NumPy scalar, which widens float32: cast back.
    grad = _restore_reduced(g, in_shape, axis, keepdims) / count
    return (grad.astype(g.dtype, copy=False),)


@primitive(_mean, out="fresh", vjp=_mean_vjp, vjp_out="view")
def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _t(a)
    return Tensor.from_op(_mean(a.data, axis, keepdims), (a,), _mean_vjp, (a.data, axis, keepdims))


# Not a primitive: its output Tensor *is* its internal ``mean``'s output,
# so registering (and so tracing) it would record that tensor twice.
def var(a, axis=None, keepdims: bool = False) -> Tensor:
    """Biased (population) variance, differentiable."""
    a = _t(a)
    mu = mean(a, axis=axis, keepdims=True)
    centered = sub(a, mu)
    return mean(square(centered), axis=axis, keepdims=keepdims)


# ---------------------------------------------------------------------------
# dunder installation
# ---------------------------------------------------------------------------

def _install_operators() -> None:
    Tensor.__add__ = lambda self, other: add(self, other)
    Tensor.__radd__ = lambda self, other: add(other, self)
    Tensor.__sub__ = lambda self, other: sub(self, other)
    Tensor.__rsub__ = lambda self, other: sub(other, self)
    Tensor.__mul__ = lambda self, other: mul(self, other)
    Tensor.__rmul__ = lambda self, other: mul(other, self)
    Tensor.__truediv__ = lambda self, other: div(self, other)
    Tensor.__rtruediv__ = lambda self, other: div(other, self)
    Tensor.__neg__ = lambda self: neg(self)
    Tensor.__pow__ = lambda self, exponent: pow_(self, exponent)
    Tensor.__matmul__ = lambda self, other: matmul(self, other)
    Tensor.__getitem__ = lambda self, index: getitem(self, index)
    Tensor.reshape = lambda self, *shape: reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)
    Tensor.transpose = lambda self, *axes: transpose(self, axes if axes else None)
    Tensor.sum = lambda self, axis=None, keepdims=False: sum_(self, axis, keepdims)
    Tensor.mean = lambda self, axis=None, keepdims=False: mean(self, axis, keepdims)


_install_operators()
