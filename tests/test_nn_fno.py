"""The rank-generic FNO: shapes, grid features, resolution transfer, counts."""

import numpy as np
import pytest

from repro.core import ChannelFNOConfig, SpaceTimeFNOConfig, build_model, parameter_count
from repro.nn import FNO
from repro.tensor import Tensor

RNG = np.random.default_rng(31)


class TestFNO2d:
    def test_output_shape(self):
        model = FNO(in_channels=4, out_channels=6, modes=(4, 4), width=8, n_layers=2, rng=RNG)
        out = model(Tensor(RNG.standard_normal((3, 4, 16, 16))))
        assert out.shape == (3, 6, 16, 16)

    def test_accepts_ndarray(self):
        model = FNO(2, 2, (3, 3), width=6, n_layers=2, rng=RNG)
        assert model(RNG.standard_normal((1, 2, 8, 8))).shape == (1, 2, 8, 8)

    def test_channel_mismatch_raises(self):
        model = FNO(2, 2, (3, 3), width=6, n_layers=2, rng=RNG)
        with pytest.raises(ValueError):
            model(Tensor(RNG.standard_normal((1, 5, 8, 8))))

    @pytest.mark.parametrize("shape", [(1, 2, 8), (1, 2, 8, 8, 4)])
    def test_wrong_rank_input_raises(self, shape):
        model = FNO(2, 2, (3, 3), width=6, n_layers=2, rng=RNG)
        with pytest.raises(ValueError, match=r"\(B, C, \*grid\) input with 4 axes"):
            model(Tensor(np.ones(shape)))

    def test_resolution_transfer(self):
        """Train-at-coarse, evaluate-at-fine: the discretisation-agnostic
        property that motivates neural operators."""
        model = FNO(1, 1, (3, 3), width=6, n_layers=2, rng=RNG)
        out8 = model(Tensor(RNG.standard_normal((1, 1, 8, 8))))
        out32 = model(Tensor(RNG.standard_normal((1, 1, 32, 32))))
        assert out8.shape == (1, 1, 8, 8)
        assert out32.shape == (1, 1, 32, 32)

    def test_resolution_consistency_on_band_limited_input(self):
        """On a band-limited field, evaluating at two resolutions gives the
        same function sampled on different grids.

        Exact only when every spectral layer sees a band-limited input, so
        use one Fourier block and no grid ramp (pointwise layers commute
        with subsampling; nonlinearities *before* a spectral layer would
        alias differently at each resolution).
        """
        model = FNO(
            1, 1, (3, 3), width=6, n_layers=1, append_grid=False,
            rng=np.random.default_rng(0),
        )
        # Build a band-limited signal on a coarse grid, then upsample it
        # spectrally to a fine grid.
        coarse = 8
        fine = 16
        spec = np.zeros((coarse, coarse // 2 + 1), dtype=complex)
        rng = np.random.default_rng(3)
        spec[1:3, 1:3] = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x_coarse = np.fft.irfft2(spec, s=(coarse, coarse))
        spec_fine = np.zeros((fine, fine // 2 + 1), dtype=complex)
        spec_fine[1:3, 1:3] = spec[1:3, 1:3] * (fine * fine) / (coarse * coarse)
        x_fine = np.fft.irfft2(spec_fine, s=(fine, fine))
        assert np.allclose(x_fine[::2, ::2], x_coarse, atol=1e-12)

        y_coarse = model(Tensor(x_coarse[None, None])).numpy()[0, 0]
        y_fine = model(Tensor(x_fine[None, None])).numpy()[0, 0]
        # The operator output on the subsampled fine grid matches the
        # coarse evaluation (spectral truncation keeps it band-limited,
        # pointwise layers act pointwise, grid features align on shared points).
        assert np.allclose(y_fine[::2, ::2], y_coarse, atol=1e-6)

    def test_grid_features_change_output(self):
        with_grid = FNO(1, 1, (2, 2), width=4, n_layers=1, append_grid=True, rng=np.random.default_rng(1))
        without = FNO(1, 1, (2, 2), width=4, n_layers=1, append_grid=False, rng=np.random.default_rng(1))
        assert with_grid.lifting.in_channels == 3
        assert without.lifting.in_channels == 1

    def test_gradients_reach_all_parameters(self):
        model = FNO(2, 2, (3, 3), width=6, n_layers=2, rng=RNG)
        out = model(Tensor(RNG.standard_normal((2, 2, 8, 8))))
        (out * out).sum().backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name
            assert np.any(p.grad != 0), name

    def test_float32(self):
        model = FNO(1, 1, (2, 2), width=4, n_layers=1, dtype=np.float32, rng=RNG)
        out = model(Tensor(RNG.standard_normal((1, 1, 8, 8)).astype(np.float32)))
        assert out.dtype == np.float32

    def test_activation_changes_output(self):
        x = RNG.standard_normal((1, 2, 8, 8))
        outs = []
        for act in ("gelu", "relu", "tanh"):
            model = FNO(2, 2, (3, 3), width=6, n_layers=2, activation=act,
                        rng=np.random.default_rng(7))
            assert model.activation == act
            outs.append(model(Tensor(x)).numpy())
        assert not np.allclose(outs[0], outs[1])
        assert not np.allclose(outs[0], outs[2])

    def test_unknown_activation_rejected(self):
        with pytest.raises(ValueError, match="unknown activation"):
            FNO(2, 2, (3, 3), width=6, n_layers=2, activation="swish", rng=RNG)


class TestFNO3d:
    def test_output_shape(self):
        model = FNO(2, 2, (3, 3, 2), width=6, n_layers=2, time_padding=4, rng=RNG)
        out = model(Tensor(RNG.standard_normal((2, 2, 8, 8, 10))))
        assert out.shape == (2, 2, 8, 8, 10)

    def test_time_padding_crops_back(self):
        model = FNO(1, 1, (2, 2, 2), width=4, n_layers=1, time_padding=3, rng=RNG)
        out = model(Tensor(RNG.standard_normal((1, 1, 8, 8, 5))))
        assert out.shape == (1, 1, 8, 8, 5)

    def test_zero_padding_works(self):
        model = FNO(1, 1, (2, 2, 2), width=4, n_layers=1, time_padding=0, rng=RNG)
        out = model(Tensor(RNG.standard_normal((1, 1, 8, 8, 6))))
        assert out.shape == (1, 1, 8, 8, 6)

    def test_gradients_reach_all_parameters(self):
        model = FNO(1, 1, (2, 2, 2), width=4, n_layers=2, time_padding=4, rng=RNG)
        out = model(Tensor(RNG.standard_normal((1, 1, 6, 6, 5))))
        (out * out).sum().backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name

    def test_channel_mismatch(self):
        model = FNO(2, 1, (2, 2, 2), width=4, n_layers=1, time_padding=4, rng=RNG)
        with pytest.raises(ValueError):
            model(Tensor(RNG.standard_normal((1, 3, 8, 8, 5))))

    @pytest.mark.parametrize("shape", [(1, 2, 8, 8), (1, 2, 8, 8, 5, 2)])
    def test_wrong_rank_input_raises(self, shape):
        model = FNO(2, 1, (2, 2, 2), width=4, n_layers=1, time_padding=4, rng=RNG)
        with pytest.raises(ValueError, match=r"\(B, C, \*grid\) input with 5 axes"):
            model(Tensor(np.ones(shape)))

    def test_divergence_free_needs_rank_2(self):
        with pytest.raises(ValueError, match="rank-2"):
            FNO(2, 2, (2, 2, 2), width=4, n_layers=1, divergence_free=True, rng=RNG)


class TestParameterCountFormula:
    @pytest.mark.parametrize("cfg", [
        ChannelFNOConfig(n_in=10, n_out=5, n_fields=2, modes1=4, modes2=4, width=8, n_layers=4),
        ChannelFNOConfig(n_in=10, n_out=1, n_fields=2, modes1=6, modes2=6, width=12, n_layers=3),
        ChannelFNOConfig(n_in=5, n_out=5, n_fields=1, modes1=3, modes2=3, width=6, n_layers=2, append_grid=False),
    ])
    def test_channel_formula_matches_instance(self, cfg):
        model = build_model(cfg, rng=np.random.default_rng(0))
        assert model.num_parameters() == parameter_count(cfg)

    @pytest.mark.parametrize("cfg", [
        SpaceTimeFNOConfig(n_fields=2, modes1=3, modes2=3, modes3=2, width=4, n_layers=2),
        SpaceTimeFNOConfig(n_fields=1, modes1=2, modes2=2, modes3=2, width=6, n_layers=4, append_grid=False),
    ])
    def test_spacetime_formula_matches_instance(self, cfg):
        model = build_model(cfg, rng=np.random.default_rng(0))
        assert model.num_parameters() == parameter_count(cfg)

    def test_count_grows_with_modes(self):
        small = ChannelFNOConfig(modes1=4, modes2=4)
        big = ChannelFNOConfig(modes1=16, modes2=16)
        assert parameter_count(big) > parameter_count(small)

    def test_3dfno_dominates_2dfno_at_same_width(self):
        """Paper Table I: 3D FNO has far more parameters than 2D+channels
        at matched width/modes because of the extra mode axis and blocks."""
        cfg2 = ChannelFNOConfig(modes1=16, modes2=16, width=20)
        cfg3 = SpaceTimeFNOConfig(modes1=16, modes2=16, modes3=8, width=20)
        assert parameter_count(cfg3) > 5 * parameter_count(cfg2)
