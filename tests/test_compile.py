"""repro.compile — plan/eager equivalence, arena safety, cache coherence.

The compiler's contract is strict: ``plan.execute(x)`` must be
*bit-for-bit* identical to the eager no-grad forward, across model
families, dtypes, batch shapes and the batch-invariant kernel context —
and arena reuse must never leak shared storage into caller-visible
outputs.  Everything here asserts exact equality, not allclose.
"""

import resource

import numpy as np
import pytest

from repro import compile as rc
from repro.compile.plan import PlanMismatchError
from repro.core.config import ChannelFNOConfig
from repro.core.models import build_model
from repro.core.rollout import apply_channels
from repro.nn import FNO, DeepONet2d
from repro.nn.module import Module
from repro.tensor import fft_ops, ops
from repro.tensor.tensor import Tensor, no_grad


@pytest.fixture(autouse=True)
def _clean_plan_cache():
    rc.clear()
    yield
    rc.clear()


def _eager(model, x):
    model.eval()
    with no_grad():
        return model(Tensor(x)).data.copy()


def _fno2d(rng_seed=0, **kw):
    kw.setdefault("modes", (6, 6))
    kw.setdefault("width", 6)
    kw.setdefault("n_layers", 2)
    kw.setdefault("projection_channels", 12)
    return FNO(3, 2, rng=np.random.default_rng(rng_seed), **kw)


# ---------------------------------------------------------------------------
# bitwise equivalence
# ---------------------------------------------------------------------------


class TestEquivalence:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fno1d_bitwise(self, dtype):
        model = FNO(2, 1, (6,), width=8, n_layers=2,
                    rng=np.random.default_rng(1))
        x = np.random.default_rng(2).standard_normal((3, 2, 48)).astype(dtype)
        plan, traced = rc.trace_model(model, x)
        eager = _eager(model, x)
        assert np.array_equal(traced, eager)
        assert np.array_equal(plan.execute(x), eager)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_fno2d_bitwise(self, dtype, batch):
        model = _fno2d()
        x = np.random.default_rng(3).standard_normal((batch, 3, 24, 24)).astype(dtype)
        plan, _ = rc.trace_model(model, x)
        eager = _eager(model, x)
        assert np.array_equal(plan.execute(x), eager)
        # repeated executions through reused arena buffers stay exact
        assert np.array_equal(plan.execute(x), eager)

    @pytest.mark.parametrize("activation", ["relu", "gelu", "tanh"])
    def test_fno2d_activations(self, activation):
        model = _fno2d(activation=activation)
        x = np.random.default_rng(4).standard_normal((2, 3, 16, 16)).astype(np.float32)
        plan, _ = rc.trace_model(model, x)
        assert np.array_equal(plan.execute(x), _eager(model, x))

    def test_fno2d_divergence_free(self):
        model = FNO(2, 2, (4, 4), width=4, n_layers=2,
                    divergence_free=True, rng=np.random.default_rng(5))
        x = np.random.default_rng(6).standard_normal((1, 2, 16, 16)).astype(np.float32)
        plan, _ = rc.trace_model(model, x)
        assert np.array_equal(plan.execute(x), _eager(model, x))

    def test_fno3d_bitwise_with_time_padding(self):
        model = FNO(2, 2, (3, 3, 2), width=4, n_layers=2,
                    time_padding=3, rng=np.random.default_rng(7))
        x = np.random.default_rng(8).standard_normal((1, 2, 12, 12, 6)).astype(np.float32)
        plan, _ = rc.trace_model(model, x)
        assert np.array_equal(plan.execute(x), _eager(model, x))

    def test_batch_invariant_context_agrees(self):
        # Plans mix modes with the eager op's batch-invariant mode_mix,
        # so repeated executions agree with eager every time.
        model = _fno2d()
        x = np.random.default_rng(9).standard_normal((2, 3, 16, 16)).astype(np.float32)
        plan, _ = rc.trace_model(model, x)
        assert np.array_equal(plan.execute(x), _eager(model, x))
        assert np.array_equal(plan.execute(x), _eager(model, x))

    def test_fft_workers_setting_agrees(self):
        model = _fno2d()
        x = np.random.default_rng(10).standard_normal((1, 3, 16, 16)).astype(np.float32)
        plan, _ = rc.trace_model(model, x)
        baseline = _eager(model, x)
        try:
            fft_ops.set_fft_workers(2)
            assert fft_ops.fft_workers() == 2
            # pocketfft output does not depend on the worker count, and
            # compiled/eager must read the same setting at call time.
            assert np.array_equal(_eager(model, x), baseline)
            assert np.array_equal(plan.execute(x), baseline)
        finally:
            fft_ops.set_fft_workers(None)


# ---------------------------------------------------------------------------
# arena safety
# ---------------------------------------------------------------------------


class TestArena:
    def test_outputs_never_alias_across_calls(self):
        model = _fno2d()
        rng = np.random.default_rng(11)
        x1 = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        x2 = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
        plan, _ = rc.trace_model(model, x1)
        y1 = plan.execute(x1)
        y1_snapshot = y1.copy()
        y2 = plan.execute(x2)
        assert not np.shares_memory(y1, y2)
        assert np.array_equal(y1, y1_snapshot)  # second call didn't clobber

    def test_arena_reuses_buffers(self):
        model = _fno2d(n_layers=3)
        x = np.random.default_rng(12).standard_normal((1, 3, 16, 16)).astype(np.float32)
        plan, _ = rc.trace_model(model, x)
        assert plan.arena.reuse_count > 0
        assert plan.nbytes > 0

    def test_shape_mismatch_raises(self):
        model = _fno2d()
        x = np.random.default_rng(13).standard_normal((1, 3, 16, 16)).astype(np.float32)
        plan, _ = rc.trace_model(model, x)
        with pytest.raises(PlanMismatchError):
            plan.execute(x[:, :, :8, :8])
        with pytest.raises(PlanMismatchError):
            plan.execute(x.astype(np.float64))

    def test_input_not_mutated(self):
        model = _fno2d()
        x = np.random.default_rng(14).standard_normal((1, 3, 16, 16)).astype(np.float32)
        snapshot = x.copy()
        plan, _ = rc.trace_model(model, x)
        plan.execute(x)
        assert np.array_equal(x, snapshot)

    def test_steady_paper_forward_takes_few_page_faults(self):
        # float32 GELU works in per-thread scratch beyond its ``out``
        # buffer; a steady call must not fault that scratch in again.
        # Measured: 0 faults per call.
        config = ChannelFNOConfig()
        model = build_model(config, rng=np.random.default_rng(5), dtype=np.float32)
        model.eval()
        x = np.random.default_rng(9).standard_normal(
            (4, config.in_channels, 64, 64)).astype(np.float32)
        for _ in range(2):
            assert rc.forward(model, x) is not None
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(4):
            rc.forward(model, x)
        per_call = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4
        assert per_call < 100


# ---------------------------------------------------------------------------
# plan cache
# ---------------------------------------------------------------------------


class TestPlanCache:
    def test_trace_once_then_hit(self):
        cache = rc.PlanCache(enabled=True)
        model = _fno2d()
        x = np.random.default_rng(15).standard_normal((1, 3, 16, 16)).astype(np.float32)
        eager = _eager(model, x)
        assert np.array_equal(cache.forward(model, x), eager)  # traces
        assert np.array_equal(cache.forward(model, x), eager)  # hits
        stats = cache.stats()
        assert stats["traces"] == 1 and stats["hits"] == 1 and stats["plans"] == 1

    def test_new_shape_traces_new_plan(self):
        cache = rc.PlanCache(enabled=True)
        model = _fno2d()
        rng = np.random.default_rng(16)
        for batch in (1, 2, 1):
            x = rng.standard_normal((batch, 3, 16, 16)).astype(np.float32)
            assert np.array_equal(cache.forward(model, x), _eager(model, x))
        stats = cache.stats()
        assert stats["traces"] == 2 and stats["hits"] == 1

    def test_lru_evicts_old_shapes(self):
        cache = rc.PlanCache(max_plans_per_model=2, enabled=True)
        model = _fno2d()
        rng = np.random.default_rng(17)
        for batch in (1, 2, 3):
            cache.forward(model, rng.standard_normal((batch, 3, 16, 16)).astype(np.float32))
        stats = cache.stats()
        assert stats["plans"] == 2 and stats["shape_evictions"] == 1

    def test_weight_swap_is_coherent_without_retrace(self):
        cache = rc.PlanCache(enabled=True)
        model = _fno2d(rng_seed=18)
        donor = _fno2d(rng_seed=19)
        x = np.random.default_rng(20).standard_normal((1, 3, 16, 16)).astype(np.float32)
        cache.forward(model, x)
        model.load_state_dict(donor.state_dict())
        # same plan object, new weights: parameters are read at call time
        assert np.array_equal(cache.forward(model, x), _eager(donor, x))
        assert cache.stats()["traces"] == 1

    def test_deeponet_falls_back_to_eager(self):
        cache = rc.PlanCache(enabled=True)
        model = DeepONet2d(2, 1, grid_size=8, n_basis=4, branch_hidden=8,
                           trunk_hidden=8, rng=np.random.default_rng(21))
        x = np.random.default_rng(22).standard_normal((1, 2, 8, 8)).astype(np.float64)
        assert cache.forward(model, x) is None
        assert cache.forward(model, x) is None  # negatively cached
        stats = cache.stats()
        assert stats["fallbacks"] == 2 and stats["traces"] == 0

    def test_untraced_intermediate_is_never_frozen(self):
        # ``astype`` is not a traced op: a plan would replay its first
        # output as a constant, so the model must be served eagerly.
        class Cast(Module):
            def forward(self, x):
                return ops.add((x * 2.0).astype(np.float32), 1.0)

        cache = rc.PlanCache(enabled=True)
        model = Cast()
        x1, x2 = np.ones((1, 2), np.float32), np.full((1, 2), 5.0, np.float32)
        assert cache.forward(model, x1) is None
        assert cache.forward(model, x2) is None
        assert cache.stats()["plans"] == 0

    def test_invalidate_drops_plans(self):
        cache = rc.PlanCache(enabled=True)
        model = _fno2d()
        x = np.random.default_rng(23).standard_normal((1, 3, 16, 16)).astype(np.float32)
        cache.forward(model, x)
        assert cache.invalidate(model) == 1
        assert cache.stats()["plans"] == 0
        assert cache.invalidate(model) == 0

    def test_env_gate_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILE", "0")
        cache = rc.PlanCache()
        assert not cache.enabled
        model = _fno2d()
        x = np.random.default_rng(24).standard_normal((1, 3, 16, 16)).astype(np.float32)
        assert cache.forward(model, x) is None
        assert cache.stats()["plans"] == 0
        monkeypatch.setenv("REPRO_COMPILE", "1")
        assert rc.PlanCache().enabled

    def test_mismatched_execution_falls_back_and_drops(self):
        cache = rc.PlanCache(enabled=True)
        model = _fno2d()
        x = np.random.default_rng(25).standard_normal((1, 3, 16, 16)).astype(np.float32)
        cache.forward(model, x)
        # sabotage the cached plan so execution fails mid-flight
        plan = cache.plan_for(model, x)
        plan.input_shape = (9, 9, 9, 9)
        out = cache.forward(model, x)
        assert out is None  # served eagerly by the caller
        assert cache.stats()["plans"] == 0  # bad plan dropped


# ---------------------------------------------------------------------------
# integration: apply_channels and the CLI
# ---------------------------------------------------------------------------


class TestIntegration:
    def test_apply_channels_uses_compiled_path(self):
        model = _fno2d()
        x = np.random.default_rng(26).standard_normal((1, 3, 16, 16)).astype(np.float32)
        before = rc.stats()["traces"]
        out1 = apply_channels(model, x)
        out2 = apply_channels(model, x)
        assert rc.stats()["traces"] == before + 1
        eager = _eager(model, x)
        assert np.array_equal(out1, eager)
        assert np.array_equal(out2, eager)

    def test_apply_channels_eager_when_disabled(self):
        model = _fno2d()
        x = np.random.default_rng(27).standard_normal((1, 3, 16, 16)).astype(np.float32)
        rc.set_enabled(False)
        try:
            out = apply_channels(model, x)
            assert rc.stats()["plans"] == 0
        finally:
            rc.set_enabled(True)
        assert np.array_equal(out, _eager(model, x))

    def test_compile_model_without_data(self):
        model = _fno2d()
        plan = rc.compile_model(model, (2, 3, 16, 16), dtype=np.float32)
        desc = plan.describe()
        assert desc["model"] == "FNO"
        assert desc["n_steps"] == len(plan.steps) > 0
        assert desc["arena_bytes"] == plan.nbytes
        assert desc["est_flops"] == plan.flops > 0

    def test_cli_prints_plan(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.core.config import ChannelFNOConfig
        from repro.core.zoo import save_model

        cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=2, modes1=4, modes2=4,
                               width=4, n_layers=2, projection_channels=8)
        for dtype in ("float32", "float64"):
            model = FNO(cfg.in_channels, cfg.out_channels, (4, 4),
                        width=4, n_layers=2, projection_channels=8,
                        rng=np.random.default_rng(28), dtype=dtype)
            path = tmp_path / f"model_{dtype}.npz"
            save_model(path, model, cfg, None)

            assert main(["compile", str(path), "--grid", "16"]) == 0
            text = capsys.readouterr().out
            assert "spectral_conv" in text and "arena" in text
            assert f"input (1, 2, 16, 16) {dtype}" in text

            assert main(["compile", str(path), "--grid", "16", "--json"]) == 0
            desc = json.loads(capsys.readouterr().out)
            assert desc["input_shape"] == [1, 2, 16, 16]
            # The plan is what serving executes: the checkpoint's own dtype.
            assert desc["input_dtype"] == dtype
            assert any(s["op"] == "spectral_conv" for s in desc["steps"])


# ---------------------------------------------------------------------------
# per-op pins: every registered op, one-op models, bitwise
# ---------------------------------------------------------------------------


class _OneOp:
    """A minimal model: ``forward`` is one traced op (plus its operands)."""

    def __init__(self, fn):
        self.fn = fn

    def eval(self):
        return self

    def __call__(self, x):
        return self.fn(x)


def _op_cases():
    """``(op, case, build)``; ``build(dtype) -> fn(x)`` over x (2, 4, 8, 8)."""
    from repro.nn.module import Parameter
    from repro.tensor import ops

    def const(arr, dtype):
        return Tensor(np.asarray(arr).astype(dtype))

    rng = np.random.default_rng(40)
    bias = rng.standard_normal((1, 4, 1, 1))
    mat = rng.standard_normal((8, 5))
    full = rng.standard_normal((2, 4, 8, 8))
    cond = rng.standard_normal((2, 4, 8, 8)) > 0
    lin_w = rng.standard_normal((4, 3))
    lin_b = rng.standard_normal(3)
    wr = rng.standard_normal((2, 4, 3, 3, 3))
    wi = rng.standard_normal((2, 4, 3, 3, 3))

    cases = []
    for name, fn in [("add", ops.add), ("sub", ops.sub), ("mul", ops.mul),
                     ("div", ops.div), ("maximum", ops.maximum),
                     ("minimum", ops.minimum)]:
        cases += [
            (name, "tensor", lambda d, fn=fn: lambda x: fn(x, const(bias, d))),
            (name, "scalar_right", lambda d, fn=fn: lambda x: fn(x, 0.5)),
            (name, "scalar_left", lambda d, fn=fn: lambda x: fn(-1.5, x)),
        ]
    for name in ("neg", "exp", "tanh", "sin", "cos", "abs_", "sigmoid",
                 "square", "relu", "gelu"):
        cases.append((name, "unary", lambda d, name=name: getattr(ops, name)))
    for name in ("log", "sqrt"):
        cases.append((name, "nonneg", lambda d, name=name:
                      lambda x: getattr(ops, name)(x * x)))
    cases += [
        ("pow_", "cube", lambda d: lambda x: ops.pow_(x, 3.0)),
        ("clip", "band", lambda d: lambda x: ops.clip(x, -0.5, 0.25)),
        ("where", "tensors", lambda d: lambda x: ops.where(cond, x, const(full, d))),
        ("where", "scalar_right", lambda d: lambda x: ops.where(cond, x, 0.0)),
        ("where", "scalar_left", lambda d: lambda x: ops.where(const(cond, d), 2.0, x)),
        ("channel_linear", "bias", lambda d: lambda x: ops.channel_linear(
            x, Parameter(lin_w.astype(d)), Parameter(lin_b.astype(d)))),
        ("channel_linear", "no_bias", lambda d: lambda x: ops.channel_linear(
            x, Parameter(lin_w.astype(d)))),
        ("matmul", "tensor", lambda d: lambda x: ops.matmul(x, const(mat, d))),
        ("dot", "tensor", lambda d: lambda x: ops.dot(x, const(full, d))),
        ("reshape", "then_add", lambda d: lambda x: ops.reshape(x, (2, 4, 64)) + 1.0),
        ("transpose", "then_mul", lambda d: lambda x: ops.transpose(x, (0, 2, 3, 1)) * 3.0),
        ("transpose", "reversed", lambda d: lambda x: ops.transpose(x)),
        ("moveaxis", "then_sub", lambda d: lambda x: 0.25 - ops.moveaxis(x, 1, -1)),
        ("broadcast_to", "lead_axis", lambda d: lambda x: ops.broadcast_to(x, (3, 2, 4, 8, 8))),
        ("roll", "one_axis", lambda d: lambda x: ops.roll(x, 3, 2)),
        ("roll", "two_axes", lambda d: lambda x: ops.roll(x, (1, -2), (2, 3))),
        ("getitem", "strided", lambda d: lambda x: x[:, 1:3, ::2]),
        ("getitem", "int_then_div", lambda d: lambda x: x[..., 0] / 7.0),
        ("pad", "zero", lambda d: lambda x: ops.pad(x, ((0, 0), (0, 0), (1, 2), (2, 1)))),
        ("pad", "negative_zero_fill", lambda d: lambda x: ops.pad(
            x, ((0, 0), (0, 0), (0, 0), (0, 3)), -0.0)),
        ("concatenate", "constant_piece", lambda d: lambda x: ops.concatenate(
            [x, const(full, d)], axis=1)),
        ("concatenate", "traced_pieces", lambda d: lambda x: ops.concatenate(
            [x, -x], axis=-1)),
        ("stack", "traced_pieces", lambda d: lambda x: ops.stack([x, -x], axis=1)),
        ("sum_", "all", lambda d: lambda x: ops.sum_(x)),
        ("sum_", "axis_keepdims", lambda d: lambda x: ops.sum_(x, axis=(1, 3), keepdims=True)),
        ("mean", "all", lambda d: lambda x: ops.mean(x)),
        ("mean", "axis", lambda d: lambda x: ops.mean(x, axis=2)),
        ("spectral_conv", "2d", lambda d: lambda x: fft_ops.spectral_conv(
            x, Parameter(wr.astype(d)), Parameter(wi.astype(d)), (3, 3))),
        ("solenoidal_projection_2d", "pairs", lambda d: lambda x:
            fft_ops.solenoidal_projection_2d(x)),
    ]
    return cases


_OP_CASES = _op_cases()


def _registered_ops() -> set[str]:
    from repro.tensor.recording import PRIMITIVES

    return set(PRIMITIVES) - {"einsum"}


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return (got.dtype == want.dtype and got.shape == want.shape
            and np.array_equal(np.signbit(got), np.signbit(want))
            and got.tobytes() == want.tobytes())


class TestPerOpPins:
    def test_every_registered_op_is_pinned(self):
        assert {op for op, _, _ in _OP_CASES} == _registered_ops()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize(
        "op,build", [(op, build) for op, _, build in _OP_CASES],
        ids=[f"{op}-{case}" for op, case, _ in _OP_CASES],
    )
    def test_plan_matches_eager_bitwise(self, op, build, dtype):
        x = np.random.default_rng(41).standard_normal((2, 4, 8, 8)).astype(dtype)
        x[0, 0, 0, :4] = [0.0, -0.0, 0.0, -0.0]
        model = _OneOp(build(dtype))
        with np.errstate(divide="ignore"):
            with no_grad():
                want = model(Tensor(x)).data.copy()
            plan, _ = rc.trace_model(model, x)
            assert op in [step.op for step in plan.steps]
            assert _same_bits(plan.execute(x), want)
            assert _same_bits(plan.execute(x), want)  # reused buffers stay exact

            # Step by step: an arena step writes into the buffer it was
            # given instead of rebinding its slot to a fresh array.
            values = plan._template().copy()
            values[plan.input_slot] = x
            for step in plan.steps:
                given = values[step.out_slot]
                step.run(values)
                if step.kind == "arena":
                    assert given is not None and values[step.out_slot] is given
        assert _same_bits(np.asarray(values[plan.output_slot]), want)
