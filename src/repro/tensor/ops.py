"""Differentiable primitives for :class:`repro.tensor.Tensor`.

Every function here takes tensors (or array-likes) and returns a Tensor
wired into the tape.  Gradient formulas are standard; all of them are
checked against central finite differences in the test suite.

The module also installs the arithmetic dunders (``+``, ``*``, ``@``,
slicing, …) on :class:`Tensor` at import time.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy import special as _sp_special

from .recording import primitive
from .tensor import Tensor, unbroadcast

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

def _accumulate_all(tensors, grads) -> None:
    """Hand each operand its cotangent, in operand order (None = skip)."""
    for t, grad in zip(tensors, grads):
        if grad is not None:
            t._accumulate(grad)


def _add_vjp(g, a, b, *, res=(), needs, out=()) -> tuple:
    return tuple(unbroadcast(g, np.shape(v)) if need else None
                 for v, need in zip((a, b), needs))


@primitive(np.add, arity=2, weak=True, flops=1, vjp=_add_vjp, vjp_out="view")
def add(a, b) -> Tensor:
    a, b = _t2(a, b)
    out_data = np.add(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        _accumulate_all((a, b), _add_vjp(g, a.data, b.data,
                                         needs=(a.requires_grad, b.requires_grad)))

    return Tensor.from_op(out_data, (a, b), backward)


@primitive(np.subtract, arity=2, weak=True, flops=1)
def sub(a, b) -> Tensor:
    a, b = _t2(a, b)
    out_data = np.subtract(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        a._accumulate(unbroadcast(g, a.data.shape))
        b._accumulate(unbroadcast(-g, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward)


@primitive(np.multiply, arity=2, weak=True, flops=1)
def mul(a, b) -> Tensor:
    a, b = _t2(a, b)
    out_data = np.multiply(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(g * a.data, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward)


@primitive(np.divide, arity=2, weak=True, flops=1)
def div(a, b) -> Tensor:
    a, b = _t2(a, b)
    out_data = np.divide(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward)


@primitive(np.negative, flops=1)
def neg(a) -> Tensor:
    a = _t(a)

    def backward(g: np.ndarray) -> None:
        a._accumulate(-g)

    return Tensor.from_op(np.negative(a.data), (a,), backward)


@primitive(np.power, flops=8)
def pow_(a, exponent: float) -> Tensor:
    """Elementwise power with a *scalar* exponent."""
    a = _t(a)
    exponent = float(exponent)
    out_data = np.power(a.data, exponent)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * exponent * a.data ** (exponent - 1.0))

    return Tensor.from_op(out_data, (a,), backward)


def _square(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.multiply(x, x, out=out)


@primitive(_square, flops=1)
def square(a) -> Tensor:
    a = _t(a)
    out_data = _square(a.data)

    def backward(g: np.ndarray) -> None:
        a._accumulate(2.0 * g * a.data)

    return Tensor.from_op(out_data, (a,), backward)


# Kept transient (a fresh result per plan call): BLAS may pick a different
# accumulation path when handed an ``out=`` buffer of unusual layout, and
# matmul is off the FNO hot path anyway.
@primitive(np.matmul, out="fresh", arity=2, weak=True,
           flops=lambda out, a, b: 2 * np.shape(a)[-1] * out.size)
def matmul(a, b) -> Tensor:
    a, b = _t2(a, b)
    out_data = np.matmul(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            if b.data.ndim == 1:
                ga = np.multiply.outer(g, b.data) if a.data.ndim > 1 else g * b.data
            else:
                ga = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(unbroadcast(np.asarray(ga), a.data.shape))
        if b.requires_grad:
            if a.data.ndim == 1:
                gb = np.multiply.outer(a.data, g) if b.data.ndim > 1 else a.data * g
            else:
                gb = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(unbroadcast(np.asarray(gb), b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward)


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.asarray(np.vdot(x, y))


@primitive(_dot, out="fresh", arity=2, weak=True)
def dot(a, b) -> Tensor:
    """Inner product of two flattened tensors."""
    a, b = _t2(a, b)
    out_data = _dot(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(g * b.data)
        if b.requires_grad:
            b._accumulate(g * a.data)

    return Tensor.from_op(out_data, (a, b), backward)


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


# Registered for tracing only: plans refuse it (see repro.compile.kernels),
# so models built on it (DeepONet) run eagerly.
@primitive(np.einsum, out="fresh")
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
    out_data = np.einsum(subscripts, *[t.data for t in tensors])

    if len(tensors) == 1:
        (a,) = tensors
        (ta,) = terms
        if "..." in ta:
            raise NotImplementedError("ellipsis is not supported for single-operand einsum gradients")
        missing = set(ta) - set(out_subs)
        size_map = dict(zip(ta, a.data.shape))

        def backward(g: np.ndarray) -> None:
            if not a.requires_grad:
                return
            kept = [c for c in ta if c in out_subs]
            ga = np.einsum(f"{out_subs}->{''.join(kept)}", g, optimize=True)
            if missing:
                # Indices summed away: broadcast the cotangent back.
                ga = np.broadcast_to(
                    _expand_missing(ga, ta, kept, size_map),
                    [size_map[c] for c in ta],
                )
            a._accumulate(np.ascontiguousarray(ga))

        return Tensor.from_op(out_data, (a,), backward)

    a, b = tensors
    ta, tb = terms
    for term, other in ((ta, tb), (tb, ta)):
        uncovered = set(_indices(term)) - set(_indices(out_subs)) - set(_indices(other))
        if uncovered:
            raise ValueError(f"einsum indices {uncovered} of one operand appear nowhere else; gradient undefined")

    def _operand_grad(g: np.ndarray, other: np.ndarray, other_term: str, self_term: str) -> np.ndarray:
        if "..." in self_term or "..." not in out_subs:
            return np.einsum(f"{out_subs},{other_term}->{self_term}", g, other, optimize=True)
        # The output carries broadcast (ellipsis) axes that this operand
        # does not have: route them to the front, then sum them away.
        res = np.einsum(f"{out_subs},{other_term}->...{self_term}", g, other, optimize=True)
        extra = res.ndim - len(_indices(self_term))
        return res.sum(axis=tuple(range(extra))) if extra else res

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_operand_grad(g, b.data, tb, ta))
        if b.requires_grad:
            b._accumulate(_operand_grad(g, a.data, ta, tb))

    return Tensor.from_op(out_data, (a, b), backward)


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


@primitive(_channel_linear, arity=3, vjp=_channel_linear_vjp,
           flops=lambda out, x, w, bias=None: 2 * x.shape[1] * out.size)
def channel_linear(x, weight, bias=None) -> Tensor:
    """Pointwise channel mix ``y[b,o,...] = sum_i x[b,i,...] w[i,o] (+ bias[o])``.

    Equivalent to ``einsum("bi...,io->bo...", x, w)`` but routed through
    ``np.matmul`` on a ``(B, C, N)`` view, with the bias folded in place
    instead of a separate broadcast add.  GEMM's cache blocking keeps this
    linear in batch size where ``c_einsum``'s channel-strided walk goes
    memory-bound, and because the batch axis stays a pure stack dimension
    the per-sample bits are identical for every batch size — safe under
    deterministic (batch-invariant) serving.
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

    def backward(g: np.ndarray) -> None:
        _accumulate_all(parents, _channel_linear_vjp(
            g, x.data, weight.data, needs=tuple(p.requires_grad for p in parents)))

    return Tensor.from_op(out_data, parents, backward)


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

@primitive(np.exp, flops=8)
def exp(a) -> Tensor:
    a = _t(a)
    out_data = np.exp(a.data)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * out_data)

    return Tensor.from_op(out_data, (a,), backward)


@primitive(np.log, flops=8)
def log(a) -> Tensor:
    a = _t(a)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g / a.data)

    return Tensor.from_op(np.log(a.data), (a,), backward)


@primitive(np.sqrt, flops=4)
def sqrt(a) -> Tensor:
    a = _t(a)
    out_data = np.sqrt(a.data)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * 0.5 / out_data)

    return Tensor.from_op(out_data, (a,), backward)


@primitive(np.tanh, flops=8)
def tanh(a) -> Tensor:
    a = _t(a)
    out_data = np.tanh(a.data)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * (1.0 - out_data * out_data))

    return Tensor.from_op(out_data, (a,), backward)


@primitive(_sp_special.expit, flops=8)
def sigmoid(a) -> Tensor:
    a = _t(a)
    out_data = _sp_special.expit(a.data)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * out_data * (1.0 - out_data))

    return Tensor.from_op(out_data, (a,), backward)


def _relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


@primitive(_relu, flops=1)
def relu(a) -> Tensor:
    a = _t(a)
    out_data = _relu(a.data)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * (a.data > 0))

    return Tensor.from_op(out_data, (a,), backward)


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


def _gelu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # IEEE multiplication is commutative at the bit level, so ``cdf * x``
    # in place equals the training forward's ``x * cdf``.
    cdf = _gelu_cdf(x, out)
    return np.multiply(cdf, x, out=cdf)


def gelu_keep_cdf(x: np.ndarray, out: np.ndarray | None = None,
                  cdf: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The training forward of :func:`gelu`: ``(x * cdf, cdf)``, keeping the
    CDF for the backward pass instead of multiplying in place."""
    cdf = _gelu_cdf(x, cdf)
    return np.multiply(x, cdf, out=out), cdf


def _gelu_vjp(g, x, *, res, needs=(True,), out=(None,)) -> tuple:
    """``g * (cdf + x * pdf(x))`` built in ``out[0]``, the only temporary.

    Each step is the same elementwise op, in the same order, as the
    expression ``g * (cdf + x * (c * exp(-0.5 * x * x)))``, so the bits
    equal that expression's with its six temporaries.
    """
    (cdf,) = res
    t = np.multiply(x, -0.5, out=out[0])
    np.multiply(t, x, out=t)
    np.exp(t, out=t)
    np.multiply(t, _INV_SQRT_2PI, out=t)
    np.multiply(x, t, out=t)
    np.add(cdf, t, out=t)
    return (np.multiply(g, t, out=t),)


@primitive(_gelu, flops=12, vjp=_gelu_vjp)
def gelu(a) -> Tensor:
    """Exact Gaussian error linear unit: ``0.5 x (1 + erf(x/sqrt(2)))``."""
    a = _t(a)
    out_data, cdf = gelu_keep_cdf(a.data)

    def backward(g: np.ndarray) -> None:
        _accumulate_all((a,), _gelu_vjp(g, a.data, res=(cdf,)))

    return Tensor.from_op(out_data, (a,), backward)


@primitive(np.absolute, flops=1)
def abs_(a) -> Tensor:
    a = _t(a)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * np.sign(a.data))

    return Tensor.from_op(np.absolute(a.data), (a,), backward)


@primitive(np.sin, flops=8)
def sin(a) -> Tensor:
    a = _t(a)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * np.cos(a.data))

    return Tensor.from_op(np.sin(a.data), (a,), backward)


@primitive(np.cos, flops=8)
def cos(a) -> Tensor:
    a = _t(a)

    def backward(g: np.ndarray) -> None:
        a._accumulate(-g * np.sin(a.data))

    return Tensor.from_op(np.cos(a.data), (a,), backward)


@primitive(np.clip, flops=2)
def clip(a, lo: float, hi: float) -> Tensor:
    a = _t(a)
    out_data = np.clip(a.data, lo, hi)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g * ((a.data >= lo) & (a.data <= hi)))

    return Tensor.from_op(out_data, (a,), backward)


@primitive(np.maximum, arity=2, weak=True, flops=1)
def maximum(a, b) -> Tensor:
    a, b = _t2(a, b)
    out_data = np.maximum(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        mask = a.data >= b.data
        if a.requires_grad:
            a._accumulate(unbroadcast(g * mask, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(g * ~mask, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward)


@primitive(np.minimum, arity=2, weak=True, flops=1)
def minimum(a, b) -> Tensor:
    a, b = _t2(a, b)
    out_data = np.minimum(a.data, b.data)

    def backward(g: np.ndarray) -> None:
        mask = a.data <= b.data
        if a.requires_grad:
            a._accumulate(unbroadcast(g * mask, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(g * ~mask, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward)


# A plan passes ``cond`` as stored (float for a tensor); np.where reads
# any nonzero element as true, exactly like the bool cast eager keeps.
@primitive(np.where, out="fresh", arity=3, weak=True, flops=1)
def where(cond, a, b) -> Tensor:
    cond = np.asarray(cond.data if isinstance(cond, Tensor) else cond, dtype=bool)
    a, b = _t2(a, b)
    out_data = np.where(cond, a.data, b.data)

    def backward(g: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(unbroadcast(g * cond, a.data.shape))
        if b.requires_grad:
            b._accumulate(unbroadcast(g * ~cond, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

@primitive(np.reshape, out="view")
def reshape(a, shape) -> Tensor:
    a = _t(a)
    in_shape = a.data.shape

    def backward(g: np.ndarray) -> None:
        a._accumulate(g.reshape(in_shape))

    return Tensor.from_op(np.reshape(a.data, shape), (a,), backward)


@primitive(np.transpose, out="view")
def transpose(a, axes: Sequence[int] | None = None) -> Tensor:
    a = _t(a)
    if axes is None:
        axes = tuple(reversed(range(a.data.ndim)))
    axes = tuple(axes)
    inv = np.argsort(axes)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g.transpose(inv))

    return Tensor.from_op(np.transpose(a.data, axes), (a,), backward)


@primitive(np.moveaxis, out="view")
def moveaxis(a, source, destination) -> Tensor:
    a = _t(a)

    def backward(g: np.ndarray) -> None:
        a._accumulate(np.moveaxis(g, destination, source))

    return Tensor.from_op(np.moveaxis(a.data, source, destination), (a,), backward)


def _getitem(x: np.ndarray, index, out: np.ndarray | None = None) -> np.ndarray:
    if out is None:
        return np.ascontiguousarray(x[index])
    np.copyto(out, x[index])
    return out


@primitive(_getitem)
def getitem(a, index) -> Tensor:
    a = _t(a)

    def backward(g: np.ndarray) -> None:
        ga = np.zeros_like(a.data)
        np.add.at(ga, index, g)
        a._accumulate(ga)

    return Tensor.from_op(_getitem(a.data, index), (a,), backward)


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


@primitive(_pad)
def pad(a, pad_width, constant_value: float = 0.0) -> Tensor:
    """Constant-pad; ``pad_width`` follows :func:`numpy.pad` conventions."""
    a = _t(a)
    slices = pad_interior(pad_width, a.data.shape)
    out_data = _pad(a.data, pad_width, constant_value)

    def backward(g: np.ndarray) -> None:
        a._accumulate(g[slices])

    return Tensor.from_op(out_data, (a,), backward)


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
    out_data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        _accumulate_all(tensors, _concatenate_vjp(
            g, [t.data for t in tensors], axis, needs=[t.requires_grad for t in tensors]))

    return Tensor.from_op(out_data, tuple(tensors), backward)


@primitive(np.stack)
def stack(tensors: Sequence, axis: int = 0) -> Tensor:
    tensors = [_t(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        pieces = np.moveaxis(g, axis, 0)
        for t, piece in zip(tensors, pieces):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor.from_op(out_data, tuple(tensors), backward)


@primitive(np.roll, out="fresh")
def roll(a, shift, axis) -> Tensor:
    """Periodic roll along ``axis`` (differentiable; adjoint rolls back)."""
    a = _t(a)

    def backward(g: np.ndarray) -> None:
        a._accumulate(np.roll(g, -shift if not isinstance(shift, tuple) else tuple(-s for s in shift), axis=axis))

    return Tensor.from_op(np.roll(a.data, shift, axis=axis), (a,), backward)


def _broadcast_to(x: np.ndarray, shape) -> np.ndarray:
    return np.broadcast_to(x, shape).copy()


@primitive(_broadcast_to, out="fresh")
def broadcast_to(a, shape) -> Tensor:
    a = _t(a)
    in_shape = a.data.shape

    def backward(g: np.ndarray) -> None:
        a._accumulate(unbroadcast(g, in_shape))

    return Tensor.from_op(_broadcast_to(a.data, shape), (a,), backward)


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


@primitive(_sum, out="fresh")
def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _t(a)
    in_shape = a.data.shape
    out_data = _sum(a.data, axis, keepdims)

    def backward(g: np.ndarray) -> None:
        a._accumulate(_restore_reduced(g, in_shape, axis, keepdims))

    return Tensor.from_op(out_data, (a,), backward)


@primitive(_mean, out="fresh")
def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _t(a)
    in_shape = a.data.shape
    out_data = _mean(a.data, axis, keepdims)
    count = a.data.size if axis is None else np.prod(
        [in_shape[ax % len(in_shape)] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def backward(g: np.ndarray) -> None:
        a._accumulate(_restore_reduced(g, in_shape, axis, keepdims) / count)

    return Tensor.from_op(out_data, (a,), backward)


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
