"""Model builders and config dispatch."""

import numpy as np
import pytest

from repro.core import (
    ChannelFNOConfig,
    SpaceTimeFNOConfig,
    Spatial3DChannelsConfig,
    build_model,
    parameter_count,
)
from repro.nn import FNO


class TestConfigs:
    def test_channel_config_channels(self):
        cfg = ChannelFNOConfig(n_in=10, n_out=5, n_fields=2)
        assert cfg.in_channels == 20
        assert cfg.out_channels == 10

    def test_spatial3d_config_channels(self):
        cfg = Spatial3DChannelsConfig(n_in=4, n_out=2, n_fields=3)
        assert cfg.in_channels == 12
        assert cfg.out_channels == 6

    def test_to_dict_kinds(self):
        assert ChannelFNOConfig().to_dict()["kind"] == "channel_fno"
        assert SpaceTimeFNOConfig().to_dict()["kind"] == "spacetime_fno"
        assert Spatial3DChannelsConfig().to_dict()["kind"] == "spatial3d_channels"

    def test_configs_are_frozen(self):
        cfg = ChannelFNOConfig()
        with pytest.raises(Exception):
            cfg.width = 99


class TestBuilders:
    def test_dispatch(self):
        rng = np.random.default_rng(0)
        m2 = build_model(ChannelFNOConfig(n_in=1, n_out=1, n_fields=1,
                                          modes1=2, modes2=2, width=4, n_layers=1), rng)
        assert isinstance(m2, FNO) and m2.modes == (2, 2)
        m3 = build_model(SpaceTimeFNOConfig(n_fields=1, modes1=2, modes2=2,
                                            modes3=2, width=4, n_layers=1), rng)
        assert isinstance(m3, FNO) and m3.modes == (2, 2, 2)
        s3 = build_model(Spatial3DChannelsConfig(n_in=1, n_out=1, n_fields=1,
                                                 modes1=2, modes2=2, modes3=2,
                                                 width=4, n_layers=1), rng)
        assert isinstance(s3, FNO) and s3.modes == (2, 2, 2)

    def test_dispatch_rejects_unknown(self):
        with pytest.raises(TypeError):
            build_model(object())
        with pytest.raises(TypeError):
            parameter_count(object())

    def test_builders_deterministic_given_rng(self):
        cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=1, modes1=2, modes2=2, width=4, n_layers=1)
        a = build_model(cfg, rng=np.random.default_rng(3))
        b = build_model(cfg, rng=np.random.default_rng(3))
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.data, pb.data)

    def test_spatial3d_builder_has_no_time_padding(self):
        cfg = Spatial3DChannelsConfig(n_in=2, n_out=1, n_fields=3, modes1=2, modes2=2,
                                      modes3=2, width=4, n_layers=1)
        model = build_model(cfg, rng=np.random.default_rng(0))
        assert model.time_padding == 0
        assert model.in_channels == 6

    def test_spacetime_builder_channels_are_fields(self):
        cfg = SpaceTimeFNOConfig(n_fields=2, modes1=2, modes2=2, modes3=2, width=4, n_layers=1)
        model = build_model(cfg, rng=np.random.default_rng(0))
        assert model.in_channels == 2
        assert model.out_channels == 2


class TestParameterCount:
    @pytest.mark.parametrize("cfg", [
        Spatial3DChannelsConfig(n_in=2, n_out=2, n_fields=3, modes1=3, modes2=3,
                                modes3=2, width=6, n_layers=2),
        Spatial3DChannelsConfig(n_in=1, n_out=1, n_fields=1, modes1=2, modes2=2,
                                modes3=2, width=4, n_layers=1, append_grid=False),
    ])
    def test_spatial3d_formula_matches_instance(self, cfg):
        model = build_model(cfg, rng=np.random.default_rng(0))
        assert model.num_parameters() == parameter_count(cfg)

    def test_divergence_free_adds_no_parameters(self):
        base = ChannelFNOConfig(n_in=1, n_out=1, n_fields=2, modes1=3, modes2=3, width=6, n_layers=2)
        df = ChannelFNOConfig(n_in=1, n_out=1, n_fields=2, modes1=3, modes2=3, width=6,
                              n_layers=2, divergence_free=True)
        m_base = build_model(base, rng=np.random.default_rng(0))
        m_df = build_model(df, rng=np.random.default_rng(0))
        assert m_base.num_parameters() == m_df.num_parameters()
        assert parameter_count(base) == parameter_count(df)


def _layout(lift_in, width, spectral, n_layers, hidden, out):
    """The key -> shape list of an FNO state dict, in state-dict order."""
    keys = [("lifting.weight", (lift_in, width)), ("lifting.bias", (width,))]
    keys += [(f"spectral_layers.m{i}.weight_{part}", spectral)
             for i in range(n_layers) for part in ("real", "imag")]
    keys += [(f"local_layers.m{i}.{name}", shape) for i in range(n_layers)
             for name, shape in (("weight", (width, width)), ("bias", (width,)))]
    return keys + [
        ("projection.fc1.weight", (width, hidden)), ("projection.fc1.bias", (hidden,)),
        ("projection.fc2.weight", (hidden, out)), ("projection.fc2.bias", (out,)),
    ]


class TestCheckpointLayout:
    """State-dict keys and shapes of the default configs: saved checkpoints
    load only while these stay fixed."""

    @pytest.mark.parametrize("cfg, layout", [
        (ChannelFNOConfig(), _layout(22, 20, (2, 20, 20, 12, 12), 4, 128, 10)),
        (SpaceTimeFNOConfig(), _layout(5, 8, (4, 8, 8, 8, 8, 4), 4, 128, 2)),
        (Spatial3DChannelsConfig(), _layout(18, 8, (4, 8, 8, 4, 4, 3), 3, 64, 15)),
    ], ids=["channel", "spacetime", "spatial3d"])
    def test_state_dict_layout(self, cfg, layout):
        state = build_model(cfg, rng=np.random.default_rng(0)).state_dict()
        assert [(k, tuple(v.shape)) for k, v in state.items()] == layout
