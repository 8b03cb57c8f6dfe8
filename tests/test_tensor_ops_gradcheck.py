"""Finite-difference gradient checks for every differentiable primitive."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.tensor import Tensor, fft_ops, ops
from repro.tensor.recording import PRIMITIVES

RNG = np.random.default_rng(2024)
EPS = 1e-6
TOL = 1e-6


def gradcheck(build, *shapes, positive=False, n_checks=6, tol=TOL):
    """Compare autograd gradients of ``sum(build(*tensors))`` with FD."""
    arrays = []
    for shape in shapes:
        a = RNG.standard_normal(shape)
        if positive:
            a = np.abs(a) + 0.5
        arrays.append(a)
    tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    # Weighted sum makes the seed non-uniform (catches transposed grads).
    weights = RNG.standard_normal(out.shape)
    (out * weights).sum().backward()

    def value():
        with_np = build(*[Tensor(a) for a in arrays])
        return float((with_np.data * weights).sum())

    for t, a in zip(tensors, arrays):
        flat = a.reshape(-1)
        idx = RNG.choice(flat.size, size=min(n_checks, flat.size), replace=False)
        for i in idx:
            old = flat[i]
            flat[i] = old + EPS
            fp = value()
            flat[i] = old - EPS
            fm = value()
            flat[i] = old
            fd = (fp - fm) / (2 * EPS)
            ad = t.grad.reshape(-1)[i]
            assert ad == pytest.approx(fd, abs=tol, rel=1e-4), f"index {i}: {ad} vs {fd}"


class TestArithmetic:
    def test_add(self):
        gradcheck(lambda a, b: ops.add(a, b), (3, 4), (3, 4))

    def test_add_broadcast(self):
        gradcheck(lambda a, b: ops.add(a, b), (3, 4), (4,))

    def test_add_scalar_broadcast(self):
        gradcheck(lambda a, b: ops.add(a, b), (3, 4), ())

    def test_sub(self):
        gradcheck(lambda a, b: ops.sub(a, b), (2, 5), (2, 5))

    def test_mul(self):
        gradcheck(lambda a, b: ops.mul(a, b), (3, 4), (3, 4))

    def test_mul_broadcast(self):
        gradcheck(lambda a, b: ops.mul(a, b), (2, 3, 4), (1, 4))

    def test_div(self):
        gradcheck(lambda a, b: ops.div(a, b), (3, 3), (3, 3), positive=True)

    def test_neg(self):
        gradcheck(lambda a: ops.neg(a), (4,))

    def test_pow(self):
        gradcheck(lambda a: ops.pow_(a, 3.0), (3, 3))

    def test_pow_fractional(self):
        gradcheck(lambda a: ops.pow_(a, 0.5), (5,), positive=True)

    def test_square(self):
        gradcheck(lambda a: ops.square(a), (3, 4))

    def test_matmul(self):
        gradcheck(lambda a, b: ops.matmul(a, b), (3, 4), (4, 5))

    def test_matmul_batched(self):
        gradcheck(lambda a, b: ops.matmul(a, b), (2, 3, 4), (2, 4, 5))

    def test_matmul_vector_rhs(self):
        gradcheck(lambda a, b: ops.matmul(a, b), (3, 4), (4,))

    def test_dot(self):
        gradcheck(lambda a, b: ops.dot(a, b), (7,), (7,))


class TestElementwise:
    def test_exp(self):
        gradcheck(lambda a: ops.exp(a), (3, 3))

    def test_log(self):
        gradcheck(lambda a: ops.log(a), (4,), positive=True)

    def test_sqrt(self):
        gradcheck(lambda a: ops.sqrt(a), (4,), positive=True)

    def test_tanh(self):
        gradcheck(lambda a: ops.tanh(a), (3, 3))

    def test_sigmoid(self):
        gradcheck(lambda a: ops.sigmoid(a), (3, 3))

    def test_relu(self):
        # keep inputs away from the kink
        a = np.abs(RNG.standard_normal((3, 3))) + 0.1
        a[0] = -a[0]
        t = Tensor(a.copy(), requires_grad=True)
        ops.relu(t).sum().backward()
        assert np.allclose(t.grad, (a > 0).astype(float))

    def test_gelu(self):
        gradcheck(lambda a: ops.gelu(a), (3, 3))

    def test_abs(self):
        a = np.abs(RNG.standard_normal((8,))) + 0.1
        a[::2] *= -1
        t = Tensor(a.copy(), requires_grad=True)
        ops.abs_(t).sum().backward()
        assert np.allclose(t.grad, np.sign(a))

    def test_sin(self):
        gradcheck(lambda a: ops.sin(a), (3, 3))

    def test_cos(self):
        gradcheck(lambda a: ops.cos(a), (3, 3))

    def test_clip_interior(self):
        a = RNG.uniform(-0.5, 0.5, (4, 4))
        t = Tensor(a.copy(), requires_grad=True)
        ops.clip(t, -1.0, 1.0).sum().backward()
        assert np.allclose(t.grad, 1.0)

    def test_clip_exterior_zero_grad(self):
        t = Tensor(np.array([2.0, -2.0]), requires_grad=True)
        ops.clip(t, -1.0, 1.0).sum().backward()
        assert np.allclose(t.grad, 0.0)

    def test_maximum(self):
        gradcheck(lambda a, b: ops.maximum(a, b), (6,), (6,), tol=1e-5)

    def test_minimum(self):
        gradcheck(lambda a, b: ops.minimum(a, b), (6,), (6,), tol=1e-5)

    def test_where(self):
        cond = RNG.random((4, 4)) > 0.5
        gradcheck(lambda a, b: ops.where(cond, a, b), (4, 4), (4, 4))


class TestShape:
    def test_reshape(self):
        gradcheck(lambda a: ops.reshape(a, (6, 2)), (3, 4))

    def test_reshape_method_flatten(self):
        gradcheck(lambda a: a.reshape((12,)), (3, 4))

    def test_transpose_default(self):
        gradcheck(lambda a: ops.transpose(a), (3, 4))

    def test_transpose_axes(self):
        gradcheck(lambda a: ops.transpose(a, (2, 0, 1)), (2, 3, 4))

    def test_moveaxis(self):
        gradcheck(lambda a: ops.moveaxis(a, 0, -1), (2, 3, 4))

    def test_getitem_slice(self):
        gradcheck(lambda a: ops.getitem(a, (slice(1, 3), slice(None))), (4, 5))

    def test_getitem_strided(self):
        gradcheck(lambda a: ops.getitem(a, (slice(None), slice(0, None, 2))), (3, 6))

    def test_getitem_ellipsis(self):
        gradcheck(lambda a: a[..., :-1], (2, 3, 4))

    def test_getitem_int_index(self):
        gradcheck(lambda a: a[1], (3, 4))

    def test_getitem_fancy_repeated(self):
        # repeated fancy indices must accumulate (np.add.at semantics)
        t = Tensor(np.arange(4.0), requires_grad=True)
        y = t[np.array([0, 0, 1])]
        y.sum().backward()
        assert np.allclose(t.grad, [2.0, 1.0, 0.0, 0.0])

    def test_pad(self):
        gradcheck(lambda a: ops.pad(a, [(1, 2), (0, 3)]), (3, 4))

    def test_pad_uniform(self):
        gradcheck(lambda a: ops.pad(a, (1, 1)), (3, 3))

    def test_concatenate(self):
        gradcheck(lambda a, b: ops.concatenate([a, b], axis=1), (2, 3), (2, 4))

    def test_stack(self):
        gradcheck(lambda a, b: ops.stack([a, b], axis=0), (3, 4), (3, 4))

    def test_roll(self):
        gradcheck(lambda a: ops.roll(a, 2, axis=1), (3, 5))

    def test_roll_negative(self):
        gradcheck(lambda a: ops.roll(a, -1, axis=0), (4, 3))

    def test_broadcast_to(self):
        gradcheck(lambda a: ops.broadcast_to(a, (5, 3, 4)), (3, 4))


class TestReductions:
    def test_sum_all(self):
        gradcheck(lambda a: ops.sum_(a), (3, 4))

    def test_sum_axis(self):
        gradcheck(lambda a: ops.sum_(a, axis=1), (3, 4))

    def test_sum_axis_tuple_keepdims(self):
        gradcheck(lambda a: ops.sum_(a, axis=(0, 2), keepdims=True), (2, 3, 4))

    def test_sum_negative_axis(self):
        gradcheck(lambda a: ops.sum_(a, axis=-1), (3, 4))

    def test_mean_all(self):
        gradcheck(lambda a: ops.mean(a), (3, 4))

    def test_mean_axis(self):
        gradcheck(lambda a: ops.mean(a, axis=0, keepdims=True), (3, 4))

    def test_var(self):
        gradcheck(lambda a: ops.var(a, axis=1), (3, 5))

    def test_var_matches_numpy(self):
        a = RNG.standard_normal((4, 6))
        v = ops.var(Tensor(a), axis=1)
        assert np.allclose(v.data, a.var(axis=1))


class TestChains:
    def test_mlp_like_chain(self):
        gradcheck(
            lambda a, b: ops.gelu(ops.matmul(ops.tanh(a), b)),
            (3, 4),
            (4, 2),
        )

    def test_normalisation_chain(self):
        def build(a):
            mu = ops.mean(a, axis=1, keepdims=True)
            centered = ops.sub(a, mu)
            return ops.div(centered, ops.sqrt(ops.var(a, axis=1, keepdims=True) + 1.0))

        gradcheck(build, (3, 5))

    def test_dunder_expression(self):
        gradcheck(lambda a, b: (a * 2.0 + b) / (b * b + 3.0) - a, (4,), (4,))

    def test_rsub_rdiv(self):
        gradcheck(lambda a: 1.0 - a, (3,))
        gradcheck(lambda a: 2.0 / a, (3,), positive=True)


class TestFused:
    def test_channel_linear(self):
        gradcheck(lambda x, w, b: ops.channel_linear(x, w, b), (2, 3, 4, 4), (3, 5), (5,))

    def test_einsum_two_operands(self):
        gradcheck(lambda a, b: ops.einsum("bcp,qp->bcq", a, b), (2, 3, 4), (5, 4))

    def test_einsum_one_operand(self):
        gradcheck(lambda a: ops.einsum("ij->j", a), (3, 4))

    def test_spectral_conv(self):
        gradcheck(lambda x, wr, wi: fft_ops.spectral_conv(x, wr, wi, (2, 3)),
                  (2, 3, 8, 8), (2, 3, 4, 2, 3), (2, 3, 4, 2, 3))

    def test_solenoidal_projection_2d(self):
        gradcheck(lambda x: fft_ops.solenoidal_projection_2d(x), (2, 4, 8, 8))


class TestOpTable:
    def test_every_op_has_a_vjp_and_a_gradcheck(self):
        # A new op without a VJP, or without a check in this file, fails here.
        source = Path(__file__).read_text()
        for name, spec in PRIMITIVES.items():
            assert callable(spec.vjp), name
            assert spec.vjp_out in ("arena", "fresh", "view"), name
            assert re.search(rf"\b(ops|fft_ops)\.{name}\(", source), name
