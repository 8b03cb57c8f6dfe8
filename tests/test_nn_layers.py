"""Layers: ChannelLinear/Linear/ChannelMLP, activations, SpectralConv modules."""

import math

import numpy as np
import pytest
from scipy import special

from repro.nn import (
    ChannelLinear,
    ChannelMLP,
    GELU,
    Identity,
    Linear,
    ReLU,
    Sigmoid,
    SpectralConv,
    Tanh,
    get_activation,
)
from repro.tensor import Tensor

RNG = np.random.default_rng(21)


class TestChannelLinear:
    def test_shape_2d_grid(self):
        layer = ChannelLinear(3, 5, rng=RNG)
        out = layer(Tensor(RNG.standard_normal((2, 3, 8, 8))))
        assert out.shape == (2, 5, 8, 8)

    def test_shape_3d_grid(self):
        layer = ChannelLinear(3, 5, rng=RNG)
        out = layer(Tensor(RNG.standard_normal((2, 3, 4, 4, 6))))
        assert out.shape == (2, 5, 4, 4, 6)

    def test_pointwise_consistency(self):
        # Same channel mix at every grid point.
        layer = ChannelLinear(2, 3, rng=RNG)
        x = RNG.standard_normal((1, 2, 4, 4))
        out = layer(Tensor(x)).data
        manual = np.einsum("bcij,co->boij", x, layer.weight.data) + layer.bias.data[None, :, None, None]
        assert np.allclose(out, manual)

    def test_no_bias(self):
        layer = ChannelLinear(2, 3, bias=False, rng=RNG)
        assert layer.bias is None
        x = np.zeros((1, 2, 3, 3))
        assert np.allclose(layer(Tensor(x)).data, 0.0)

    def test_wrong_channels_raises(self):
        layer = ChannelLinear(2, 3, rng=RNG)
        with pytest.raises(ValueError):
            layer(Tensor(np.zeros((1, 4, 3, 3))))

    def test_gradients_flow_to_weight_and_bias(self):
        layer = ChannelLinear(2, 3, rng=RNG)
        out = layer(Tensor(RNG.standard_normal((2, 2, 4, 4))))
        out.sum().backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        # bias grad = count of grid points times batch
        assert np.allclose(layer.bias.grad, 2 * 16)


class TestLinear:
    def test_shape(self):
        layer = Linear(4, 6, rng=RNG)
        assert layer(Tensor(RNG.standard_normal((3, 4)))).shape == (3, 6)

    def test_matches_manual(self):
        layer = Linear(4, 2, rng=RNG)
        x = RNG.standard_normal((5, 4))
        assert np.allclose(layer(Tensor(x)).data, x @ layer.weight.data + layer.bias.data)

    def test_init_scale(self):
        layer = Linear(100, 10, rng=np.random.default_rng(0))
        bound = 1.0 / np.sqrt(100)
        assert np.abs(layer.weight.data).max() <= bound


class TestChannelMLP:
    def test_shape(self):
        mlp = ChannelMLP(3, 16, 5, rng=RNG)
        assert mlp(Tensor(RNG.standard_normal((2, 3, 4, 4)))).shape == (2, 5, 4, 4)

    def test_nonlinearity_present(self):
        mlp = ChannelMLP(1, 8, 1, rng=RNG)
        x1 = RNG.standard_normal((1, 1, 4, 4))
        f = lambda x: mlp(Tensor(x)).data
        # An affine map would satisfy f(2x) - f(0) == 2(f(x) - f(0)).
        lhs = f(2 * x1) - f(0 * x1)
        rhs = 2 * (f(x1) - f(0 * x1))
        assert not np.allclose(lhs, rhs, atol=1e-8)


class TestActivationModules:
    @pytest.mark.parametrize("cls,ref", [
        (ReLU, lambda x: np.maximum(x, 0)),
        (Tanh, np.tanh),
        (Identity, lambda x: x),
        (GELU, lambda x: 0.5 * x * (1.0 + special.erf(x / math.sqrt(2.0)))),
    ])
    def test_matches_reference(self, cls, ref):
        x = RNG.standard_normal((4, 4))
        assert np.allclose(cls()(Tensor(x)).data, ref(x))

    def test_sigmoid_range(self):
        y = Sigmoid()(Tensor(RNG.standard_normal(100))).data
        assert np.all((y > 0) & (y < 1))

    def test_gelu_at_zero(self):
        assert GELU()(Tensor(np.zeros(3))).data == pytest.approx(0.0)

    def test_get_activation(self):
        assert isinstance(get_activation("gelu"), GELU)
        assert isinstance(get_activation("RELU"), ReLU)
        with pytest.raises(ValueError):
            get_activation("swish")


class TestSpectralConvModules:
    def test_2d_weight_shapes(self):
        layer = SpectralConv(3, 5, (4, 6), rng=RNG)
        assert layer.weight_real.shape == (2, 3, 5, 4, 6)
        assert layer.weight_imag.shape == (2, 3, 5, 4, 6)

    def test_2d_forward_shape(self):
        layer = SpectralConv(3, 5, (4, 4), rng=RNG)
        assert layer(Tensor(RNG.standard_normal((2, 3, 16, 16)))).shape == (2, 5, 16, 16)

    def test_2d_resolution_invariance_of_weights(self):
        # Same layer applies at any resolution with 2*modes1 <= n.
        layer = SpectralConv(1, 1, (3, 3), rng=RNG)
        out8 = layer(Tensor(RNG.standard_normal((1, 1, 8, 8))))
        out16 = layer(Tensor(RNG.standard_normal((1, 1, 16, 16))))
        assert out8.shape[-1] == 8 and out16.shape[-1] == 16

    def test_2d_init_scale(self):
        layer = SpectralConv(4, 4, (2, 2), rng=np.random.default_rng(0))
        scale = 1.0 / 16
        assert layer.weight_real.data.min() >= 0.0
        assert layer.weight_real.data.max() <= scale

    def test_3d_weight_shapes(self):
        layer = SpectralConv(2, 3, (4, 5, 6), rng=RNG)
        assert layer.weight_real.shape == (4, 2, 3, 4, 5, 6)

    def test_3d_forward_shape(self):
        layer = SpectralConv(2, 3, (2, 2, 2), rng=RNG)
        assert layer(Tensor(RNG.standard_normal((1, 2, 8, 8, 6)))).shape == (1, 3, 8, 8, 6)

    def test_param_counts(self):
        layer = SpectralConv(3, 5, (4, 6), rng=RNG)
        assert layer.num_parameters() == 2 * (2 * 3 * 5 * 4 * 6)
