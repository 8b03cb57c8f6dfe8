"""Compiled training steps equal eager training steps, bit for bit.

``Trainer`` sends each model call through ``repro.compile.train_forward``:
the first step of a batch shape runs eagerly under trace, later steps
run one arena-backed forward + backward plan.  Everything here compares
against the same model trained with compilation disabled and asserts
exact equality of the loss, every ``p.grad`` and every parameter after
each Adam + StepLR step — never allclose.
"""

import resource

import numpy as np
import pytest

from repro import compile as rc
from repro.core.config import ChannelFNOConfig, TrainingConfig
from repro.core.models import build_model
from repro.core.training import Trainer
from repro.data.loader import DataLoader
from repro.nn import FNO, DeepONet2d
from repro.nn.linear import ChannelLinear
from repro.nn.module import Module, Parameter
from repro.tensor import fft_ops, ops
from repro.tensor.tensor import Tensor


@pytest.fixture(autouse=True)
def _clean_plan_cache():
    rc.clear()
    rc.set_enabled(True)
    yield
    rc.clear()
    rc.set_enabled(True)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _small_fno2d(dtype):
    return FNO(3, 2, (5, 4), width=6, n_layers=3, projection_channels=10,
               rng=np.random.default_rng(3), dtype=dtype)


def _data(shape_in, shape_out, steps, dtype, seed=7):
    rng = np.random.default_rng(seed)
    xs = [rng.standard_normal(shape_in).astype(dtype) for _ in range(steps)]
    ys = [rng.standard_normal(shape_out).astype(dtype) for _ in range(steps)]
    return xs, ys


def _train_plan(model, x: np.ndarray):
    """The cached training plan for ``(model, x.shape, x.dtype)``, if any."""
    per_model = rc.plan_cache()._plans.get(model, {})
    entry = per_model.get(("train", x.shape, x.dtype.str))
    return entry if isinstance(entry, rc.TrainPlan) else None


def _steps(make_model, xs, ys, compiled: bool, loss_fn=None):
    """Train ``len(xs)`` Adam + StepLR steps; record the loss, every grad and
    every parameter after each step.  ``loss_fn(model, pred, y)`` replaces
    the trainer's loss when given."""
    rc.clear()
    rc.set_enabled(compiled)
    model = make_model()
    model.train()
    trainer = Trainer(model, TrainingConfig(batch_size=len(xs[0]), learning_rate=1e-2,
                                            scheduler_step=1, scheduler_gamma=0.5))
    if loss_fn is None:
        loss_fn = lambda model, pred, y: trainer.loss(pred, y)  # noqa: E731
    history = []
    for x, y in zip(xs, ys):
        model.zero_grad()
        loss = loss_fn(model, rc.train_forward(model, Tensor(x)), Tensor(y))
        loss.backward()
        grads = [p.grad.copy() for p in model.parameters()]
        trainer.optimizer.step()
        trainer.scheduler.step()
        params = [p.data.copy() for p in model.parameters()]
        history.append((loss.data.copy(), grads, params))
    return model, history


def _assert_same_history(got, want):
    assert len(got) == len(want)
    for (loss_g, grads_g, params_g), (loss_w, grads_w, params_w) in zip(got, want):
        assert _same_bits(loss_g, loss_w)
        assert len(grads_g) == len(grads_w)
        assert all(_same_bits(a, b) for a, b in zip(grads_g, grads_w))
        assert all(_same_bits(a, b) for a, b in zip(params_g, params_w))


class TestCompiledEqualsEager:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_small_fno2d(self, dtype):
        xs, ys = _data((2, 3, 16, 16), (2, 2, 16, 16), 3, dtype)
        model, got = _steps(lambda: _small_fno2d(dtype), xs, ys, compiled=True)
        plan = _train_plan(model, xs[0])
        assert isinstance(plan, rc.TrainPlan) and plan.executions == 2
        _, want = _steps(lambda: _small_fno2d(dtype), xs, ys, compiled=False)
        _assert_same_history(got, want)

    def test_fno1d_float64(self):
        def make():
            return FNO(2, 1, (6,), width=8, n_layers=2, projection_channels=8,
                       rng=np.random.default_rng(1))

        xs, ys = _data((3, 2, 40), (3, 1, 40), 3, np.float64)
        model, got = _steps(make, xs, ys, compiled=True)
        assert _train_plan(model, xs[0]) is not None
        _, want = _steps(make, xs, ys, compiled=False)
        _assert_same_history(got, want)

    def test_paper_shaped_float32_batch8(self):
        config = ChannelFNOConfig()

        def make():
            return build_model(config, rng=np.random.default_rng(5), dtype=np.float32)

        xs, ys = _data((8, config.in_channels, 64, 64), (8, config.out_channels, 64, 64),
                       3, np.float32)
        model, got = _steps(make, xs, ys, compiled=True)
        assert _train_plan(model, xs[0]).executions == 2
        _, want = _steps(make, xs, ys, compiled=False)
        _assert_same_history(got, want)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_fno2d_activation(self, activation):
        def make():
            return FNO(3, 2, (5, 4), width=6, n_layers=3, projection_channels=10,
                       activation=activation, rng=np.random.default_rng(3), dtype=np.float32)

        xs, ys = _data((2, 3, 16, 16), (2, 2, 16, 16), 3, np.float32)
        model, got = _steps(make, xs, ys, compiled=True)
        assert _train_plan(model, xs[0]).executions == 2
        _, want = _steps(make, xs, ys, compiled=False)
        _assert_same_history(got, want)

    def test_time_padded_fno3d(self):
        # ``pad`` before the Fourier blocks and the crop ``getitem`` after.
        def make():
            return FNO(2, 1, (3, 3, 2), width=6, n_layers=2, projection_channels=8,
                       time_padding=2, rng=np.random.default_rng(4))

        xs, ys = _data((2, 2, 8, 8, 6), (2, 1, 8, 8, 6), 3, np.float64)
        model, got = _steps(make, xs, ys, compiled=True)
        plan = _train_plan(model, xs[0])
        assert plan.executions == 2
        assert {"pad.vjp", "getitem.vjp"} <= {step.op for step in plan.steps}
        _, want = _steps(make, xs, ys, compiled=False)
        _assert_same_history(got, want)

    @pytest.mark.parametrize("l2_first", [True, False])
    def test_parameter_l2_term_in_the_loss(self, l2_first):
        # The loss-rooted backward reaches the parameters through the L2
        # term as well as through the plan's output; the plan's reverse
        # order, read from the output's graph, must still match eager.
        def loss_fn(model, pred, y):
            l2 = ops.sum_(ops.stack([ops.sum_(ops.square(p)) for p in model.parameters()]))
            mse = ops.mean(ops.square(pred - y))
            return l2 * 1e-3 + mse if l2_first else mse + l2 * 1e-3

        for make in (lambda: _small_fno2d(np.float64), lambda: _Branchy(np.float64)):
            xs, ys = _data((2, 3, 16, 16), (2, 2, 16, 16), 3, np.float64)
            model, got = _steps(make, xs, ys, compiled=True, loss_fn=loss_fn)
            assert _train_plan(model, xs[0]).executions == 2
            _, want = _steps(make, xs, ys, compiled=False, loss_fn=loss_fn)
            _assert_same_history(got, want)

    def test_unsupported_op_trains_eagerly_and_identically(self):
        def make():
            return DeepONet2d(2, 1, grid_size=8, n_basis=4, branch_hidden=8, trunk_hidden=8,
                              rng=np.random.default_rng(2))

        xs, ys = _data((2, 2, 8, 8), (2, 1, 8, 8), 3, np.float64)
        model, got = _steps(make, xs, ys, compiled=True)
        assert _train_plan(model, xs[0]) is None
        assert rc.stats()["fallbacks"] >= 1
        _, want = _steps(make, xs, ys, compiled=False)
        _assert_same_history(got, want)

    def test_disabled_trains_eagerly(self):
        xs, ys = _data((2, 3, 16, 16), (2, 2, 16, 16), 2, np.float32)
        before = rc.stats()
        model, _ = _steps(lambda: _small_fno2d(np.float32), xs, ys, compiled=False)
        after = rc.stats()
        assert _train_plan(model, xs[0]) is None
        assert (after["traces"], after["hits"]) == (before["traces"], before["hits"])
        assert after["models"] == 0

    def test_trainer_epochs_match(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 3, 16, 16)).astype(np.float32)
        y = rng.standard_normal((8, 2, 16, 16)).astype(np.float32)

        def fit(compiled):
            rc.clear()
            rc.set_enabled(compiled)
            model = _small_fno2d(np.float32)
            trainer = Trainer(model, TrainingConfig(epochs=3, batch_size=2, scheduler_step=1))
            history = trainer.fit(x, y)
            return history.train_loss, model.state_dict()

        loss_c, state_c = fit(True)
        loss_e, state_e = fit(False)
        assert loss_c == loss_e
        assert all(_same_bits(state_c[k], state_e[k]) for k in state_e)


class _Branchy(Module):
    """Cotangent cases the FNO does not hit: one cotangent handed as a view
    to two operands, one of which gets more contributions afterwards; one
    tensor twice in one op; a concatenation of grad-carrying pieces; a
    broadcast parameter.  ``order`` permutes the concatenation, and so
    the order in which the backward reaches the branches."""

    def __init__(self, dtype, order=(0, 1, 2)):
        super().__init__()
        rng = np.random.default_rng(6)
        self.order = order
        self.lin1 = ChannelLinear(3, 4, rng=rng, dtype=dtype)
        self.lin1b = ChannelLinear(3, 4, rng=rng, dtype=dtype)
        self.lin2 = ChannelLinear(12, 2, rng=rng, dtype=dtype)
        self.shift = Parameter(rng.standard_normal((4, 1, 1)).astype(dtype))

    def forward(self, x):
        h = ops.gelu(self.lin1(x))
        k = ops.gelu(self.lin1b(x))
        branches = [ops.add(h, k), ops.gelu(ops.add(h, self.shift)), ops.add(k, k)]
        return self.lin2(ops.concatenate([branches[i] for i in self.order], axis=1))


def _train_op_cases():
    """One small training case per op of the table: ``(op, params, build)``,
    where ``build(model, h)`` runs on the lifted input ``h`` of
    :class:`_OneOp` and reads the extra parameters named in ``params``.
    ``einsum`` is refused by the compiler and is not listed."""
    mask = np.random.default_rng(1).standard_normal((2, 24, 8, 8)) > 0
    return [
        ("channel_linear", (), lambda m, h: h),
        ("add", ("p",), lambda m, h: ops.add(h, m.p)),
        ("sub", ("p",), lambda m, h: ops.sub(m.p, h)),
        ("mul", ("p",), lambda m, h: ops.mul(h, m.p)),
        ("div", ("p",), lambda m, h: ops.div(h, ops.add(ops.square(m.p), 1.0))),
        ("neg", (), lambda m, h: -h),
        ("pow_", (), lambda m, h: ops.pow_(h, 3.0)),
        ("square", (), lambda m, h: ops.square(h)),
        ("matmul", ("q",), lambda m, h: ops.matmul(h, m.q)),
        ("dot", (), lambda m, h: h * ops.dot(ops.reshape(h, (-1,)), ops.reshape(h, (-1,)))),
        ("exp", (), lambda m, h: ops.exp(h)),
        ("log", (), lambda m, h: ops.log(ops.square(h) + 1.0)),
        ("sqrt", (), lambda m, h: ops.sqrt(ops.square(h) + 1.0)),
        ("tanh", (), lambda m, h: ops.tanh(h)),
        ("sigmoid", (), lambda m, h: ops.sigmoid(h)),
        ("relu", (), lambda m, h: ops.relu(h)),
        ("gelu", (), lambda m, h: ops.gelu(h)),
        ("abs_", (), lambda m, h: ops.abs_(h)),
        ("sin", (), lambda m, h: ops.sin(h)),
        ("cos", (), lambda m, h: ops.cos(h)),
        ("clip", (), lambda m, h: ops.clip(h, -0.3, 0.3)),
        ("maximum", ("p",), lambda m, h: ops.maximum(h, m.p)),
        ("minimum", (), lambda m, h: ops.minimum(h, 0.1)),
        ("where", ("p",), lambda m, h: ops.where(mask, h, m.p)),
        ("reshape", (), lambda m, h: ops.reshape(ops.reshape(h, (2, 24, 64)), (2, 24, 8, 8))),
        ("transpose", (), lambda m, h: ops.transpose(ops.transpose(h, (0, 1, 3, 2)), (0, 1, 3, 2))),
        ("moveaxis", (), lambda m, h: ops.moveaxis(ops.moveaxis(h, 1, -1), -1, 1)),
        ("getitem", (), lambda m, h: ops.pad(h[..., 1:7], ((0, 0), (0, 0), (0, 0), (1, 1)))),
        ("pad", (), lambda m, h: ops.pad(h, ((0, 0), (0, 0), (1, 2), (2, 1)))[:, :, 1:9, 2:10]),
        ("concatenate", (), lambda m, h: ops.concatenate([h, h[:, :1]], axis=1)[:, 1:]),
        ("stack", (), lambda m, h: ops.stack([h, h * 2.0], axis=1)[:, 1]),
        ("roll", (), lambda m, h: ops.roll(h, (1, -2), (2, 3))),
        ("broadcast_to", ("p",), lambda m, h: ops.broadcast_to(h[:, :1], (2, 24, 8, 8)) * m.p),
        # A lone reduction cotangent reaches the lifting's matmul VJP.
        ("sum_", (), lambda m, h: ops.broadcast_to(ops.sum_(h, axis=1, keepdims=True),
                                                   (2, 24, 8, 8))),
        ("mean", (), lambda m, h: h * ops.mean(h, axis=2, keepdims=True) + ops.mean(h)),
        ("spectral_conv", ("wr", "wi"), lambda m, h: fft_ops.spectral_conv(h, m.wr, m.wi, (3, 3))),
        ("solenoidal_projection_2d", (), lambda m, h: fft_ops.solenoidal_projection_2d(h)),
    ]


_TRAIN_OP_CASES = _train_op_cases()


class _OneOp(Module):
    """``lin2(op(lin1(x)))``: a gradient reaches the op's traced input,
    and the op's cotangents reach a 24-channel matmul VJP."""

    SHAPES = {"p": (24, 1, 1), "q": (8, 8), "wr": (2, 24, 24, 3, 3), "wi": (2, 24, 24, 3, 3)}

    def __init__(self, op, params, dtype):
        super().__init__()
        rng = np.random.default_rng(6)
        self.op = op
        self.lin1 = ChannelLinear(3, 24, rng=rng, dtype=dtype)
        self.lin2 = ChannelLinear(24, 2, rng=rng, dtype=dtype)
        for name in params:
            setattr(self, name, Parameter(rng.standard_normal(self.SHAPES[name]).astype(dtype)))

    def forward(self, x):
        return self.lin2(self.op(self, self.lin1(x)))


class TestPerOpTrainPins:
    def test_every_trainable_op_is_pinned(self):
        from repro.tensor.recording import PRIMITIVES

        assert {op for op, _, _ in _TRAIN_OP_CASES} == set(PRIMITIVES) - {"einsum"}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op,params,build", _TRAIN_OP_CASES,
                             ids=[op for op, _, _ in _TRAIN_OP_CASES])
    def test_plan_step_matches_eager_bitwise(self, op, params, build, dtype):
        xs, ys = _data((2, 3, 8, 8), (2, 2, 8, 8), 3, dtype)
        model, got = _steps(lambda: _OneOp(build, params, dtype), xs, ys, compiled=True)
        plan = _train_plan(model, xs[0])
        assert f"{op}.vjp" in {step.op for step in plan.steps}
        _, want = _steps(lambda: _OneOp(build, params, dtype), xs, ys, compiled=False)
        _assert_same_history(got, want)


class TestPlanSafety:
    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_views_and_broadcasts_match_eager(self, dtype, order):
        xs, ys = _data((2, 3, 8, 8), (2, 2, 8, 8), 3, dtype)
        model, got = _steps(lambda: _Branchy(dtype, order), xs, ys, compiled=True)
        assert _train_plan(model, xs[0]) is not None
        _, want = _steps(lambda: _Branchy(dtype, order), xs, ys, compiled=False)
        _assert_same_history(got, want)

    def test_second_forward_before_backward_keeps_grads_exact(self):
        dtype = np.float64
        xs, ys = _data((2, 3, 16, 16), (2, 2, 16, 16), 3, dtype)
        model = _small_fno2d(dtype)
        model.train()
        loss_fn = Trainer(model, TrainingConfig()).loss
        loss_fn(rc.train_forward(model, Tensor(xs[0])), Tensor(ys[0])).backward()  # trace
        model.zero_grad()
        out1 = rc.train_forward(model, Tensor(xs[1]))
        out2 = rc.train_forward(model, Tensor(xs[2]))  # overwrites the arena
        loss_fn(out1, Tensor(ys[1])).backward()
        got = [p.grad.copy() for p in model.parameters()]
        del out2

        rc.set_enabled(False)
        model.zero_grad()
        loss_fn(model(Tensor(xs[1])), Tensor(ys[1])).backward()
        assert all(_same_bits(a, p.grad) for a, p in zip(got, model.parameters()))

    def test_param_grads_are_not_arena_storage(self):
        xs, ys = _data((2, 3, 16, 16), (2, 2, 16, 16), 2, np.float32)
        model, _ = _steps(lambda: _small_fno2d(np.float32), xs, ys, compiled=True)
        plan = _train_plan(model, xs[0])
        arena = [buf for buf in plan._template() if isinstance(buf, np.ndarray)]
        for p in model.parameters():
            assert not any(np.shares_memory(p.grad, buf) for buf in arena)

    def test_every_step_local_buffer_is_released(self, monkeypatch):
        # A reusable arena buffer no step reads is never freed, so it
        # would stay pinned for the rest of the schedule.
        from repro.compile import train as train_module

        built = []
        real = train_module.assign_buffers

        def spy(builder, keep):
            built.append((builder, keep))
            return real(builder, keep)

        monkeypatch.setattr(train_module, "assign_buffers", spy)
        xs, ys = _data((2, 3, 16, 16), (2, 2, 16, 16), 2, np.float64)
        _steps(lambda: _small_fno2d(np.float64), xs, ys, compiled=True)
        (b, keep), = built
        read = set(keep).union(*b.step_reads)
        pinned = [req.slot for reqs in b.step_requests for req in reqs
                  if req.reusable and req.init is None and b.root(req.slot) not in read]
        assert pinned == []

    def test_steady_paper_step_takes_few_page_faults(self):
        config = ChannelFNOConfig()
        model = build_model(config, rng=np.random.default_rng(5), dtype=np.float32)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((32, config.in_channels, 64, 64)).astype(np.float32)
        y = rng.standard_normal((32, config.out_channels, 64, 64)).astype(np.float32)
        trainer = Trainer(model, TrainingConfig(batch_size=8))
        trainer.train_epoch(DataLoader(x[:16], y[:16], batch_size=8, shuffle=False))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        trainer.train_epoch(DataLoader(x, y, batch_size=8, shuffle=False))
        per_step = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4
        assert per_step < 1000


class TestStepTiming:
    def test_steps_are_timed_only_while_profiling(self):
        from repro.obs import hooks

        model = _small_fno2d(np.float64)
        x = np.random.default_rng(4).standard_normal((2, 3, 16, 16))
        plan, _ = rc.trace_model(model, x)
        plan.execute(x)
        assert sum(plan.step_seconds) == 0.0
        with hooks.step_timing():
            assert hooks.PROFILING
            plan.execute(x)
        assert not hooks.PROFILING
        assert all(t > 0 for t in plan.step_seconds)

    @pytest.mark.parametrize("profile_exits_first", [True, False])
    def test_interleaved_profile_and_step_timing(self, profile_exits_first):
        from repro.obs import hooks
        from repro.tensor import fft_ops

        original_fft = fft_ops._fft
        prof, timing = hooks.profile(), hooks.step_timing()
        prof.__enter__()
        timing.__enter__()
        first, second = (prof, timing) if profile_exits_first else (timing, prof)
        first.__exit__(None, None, None)
        assert hooks.PROFILING
        assert (fft_ops._fft is original_fft) == profile_exits_first
        second.__exit__(None, None, None)
        assert not hooks.PROFILING
        assert fft_ops._fft is original_fft

    def test_concurrent_step_timing_loses_no_updates(self, monkeypatch):
        import sys
        import threading

        from repro.compile import plan as plan_module
        from repro.obs import hooks

        class _TickPerCall(threading.local):
            now = 0.0

        ticks = _TickPerCall()

        def perf_counter():  # each step of each thread lasts exactly 1.0
            ticks.now += 1.0
            return ticks.now

        monkeypatch.setattr(plan_module, "time", type("T", (), {"perf_counter": perf_counter}))
        model = _small_fno2d(np.float64)
        x = np.random.default_rng(4).standard_normal((1, 3, 16, 16))
        plan, _ = rc.trace_model(model, x)
        threads, calls = 8, 60

        def work():
            for _ in range(calls):
                plan.execute(x)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with hooks.step_timing():
                workers = [threading.Thread(target=work) for _ in range(threads)]
                for w in workers:
                    w.start()
                for w in workers:
                    w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert plan.step_seconds == [float(threads * calls)] * len(plan.steps)

    def test_training_plan_profile_rows(self):
        from repro.compile.cli import profile_rows

        xs, ys = _data((2, 3, 16, 16), (2, 2, 16, 16), 2, np.float32)
        model, _ = _steps(lambda: _small_fno2d(np.float32), xs, ys, compiled=True)
        plan = _train_plan(model, xs[0])
        loss_fn = Trainer(model, TrainingConfig()).loss

        def step():
            loss_fn(rc.train_forward(model, Tensor(xs[0])), Tensor(ys[0])).backward()

        rows = profile_rows(plan, step, 2)
        ops = {row["name"] for row in rows["by_op"]}
        assert {"spectral_conv", "spectral_conv.vjp", "gelu.vjp", "channel_linear.vjp"} <= ops
        assert abs(sum(row["share"] for row in rows["by_module"]) - 1.0) < 1e-9
        assert {"spectral_layers.m0", "projection.fc1"} <= {r["name"] for r in rows["by_module"]}

    def test_cli_profile(self, tmp_path, capsys):
        import json

        from repro.cli import main
        from repro.compile.cli import PROFILE_CALLS
        from repro.core.zoo import save_model

        config = ChannelFNOConfig(n_in=1, n_out=1, modes1=4, modes2=4, width=4,
                                  n_layers=2, projection_channels=8)
        path = tmp_path / "model.npz"
        save_model(path, build_model(config, rng=np.random.default_rng(1)), config, None)
        assert main(["compile", str(path), "--grid", "16", "--profile"]) == 0
        text = capsys.readouterr().out
        assert f"profile    : {PROFILE_CALLS} calls" in text and "GFLOP/s" in text
        assert "spectral_layers.m0" in text
        assert main(["compile", str(path), "--grid", "16", "--json", "--profile"]) == 0
        desc = json.loads(capsys.readouterr().out)
        assert desc["profile"]["calls"] == PROFILE_CALLS
        assert {row["name"] for row in desc["profile"]["by_op"]} >= {"spectral_conv", "gelu"}
