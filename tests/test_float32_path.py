"""Single-precision end-to-end path.

Training in float32 halves memory and roughly doubles einsum/FFT
throughput on CPU; these tests pin down that the stack supports it
end to end without silent upcasts, and pin GELU's precision policy:
float32 runs its own erf, float64 keeps ``scipy.special.erf``.
"""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from repro.checks import dtype_sanitizer
from repro.compile import runtime, trace_model
from repro.core import ChannelFNOConfig, Trainer, TrainingConfig
from repro.core.models import build_model
from repro.core.rollout import apply_channels
from repro.data import FieldNormalizer, make_channel_pairs
from repro.fleet.replica import BLAS_THREAD_VARS
from repro.nn import FNO, LpLoss
from repro.optim import Adam
from repro.tensor import Tensor, no_grad, ops

RNG = np.random.default_rng(281)


def _f32_model():
    return FNO(2, 2, (4, 4), width=8, n_layers=2,
               dtype=np.float32, rng=np.random.default_rng(0))


class TestFloat32:
    def test_forward_stays_float32(self):
        model = _f32_model()
        x = RNG.standard_normal((2, 2, 16, 16)).astype(np.float32)
        with no_grad():
            out = model(Tensor(x))
        assert out.dtype == np.float32

    def test_parameters_are_float32(self):
        for _, p in _f32_model().named_parameters():
            assert p.dtype == np.float32

    def test_gradients_are_float32(self):
        model = _f32_model()
        x = Tensor(RNG.standard_normal((2, 2, 16, 16)).astype(np.float32))
        loss = LpLoss()(model(x), Tensor(RNG.standard_normal((2, 2, 16, 16)).astype(np.float32)))
        loss.backward()
        for _, p in model.named_parameters():
            assert p.grad is not None
            assert p.grad.dtype == np.float32

    def test_adam_training_step_preserves_dtype(self):
        model = _f32_model()
        opt = Adam(model.parameters(), lr=1e-3)
        x = Tensor(RNG.standard_normal((2, 2, 16, 16)).astype(np.float32))
        y = Tensor(RNG.standard_normal((2, 2, 16, 16)).astype(np.float32))
        for _ in range(2):
            model.zero_grad()
            LpLoss()(model(x), y).backward()
            opt.step()
        for _, p in model.named_parameters():
            assert p.dtype == np.float32

    def test_loss_decreases_in_float32(self):
        x32 = RNG.standard_normal((12, 2, 8, 8)).astype(np.float32)
        y32 = np.fft.irfft2(np.fft.rfft2(x32) * 0.5, s=(8, 8)).astype(np.float32)
        model = FNO(2, 2, (3, 3), width=6, n_layers=2,
                    dtype=np.float32, rng=np.random.default_rng(1))
        opt = Adam(model.parameters(), lr=3e-3)
        losses = []
        for _ in range(12):
            model.zero_grad()
            loss = LpLoss()(model(Tensor(x32)), Tensor(y32))
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < 0.8 * losses[0]

    def test_float32_agrees_with_float64(self):
        """Same weights cast down: forward passes agree to single precision."""
        cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=2, modes1=4, modes2=4,
                               width=8, n_layers=2)
        m64 = build_model(cfg, rng=np.random.default_rng(3), dtype=np.float64)
        m32 = build_model(cfg, rng=np.random.default_rng(3), dtype=np.float32)
        m32.load_state_dict({k: v.astype(np.float32) for k, v in m64.state_dict().items()})
        x = RNG.standard_normal((1, 2, 16, 16))
        with no_grad():
            y64 = m64(Tensor(x)).numpy()
            y32 = m32(Tensor(x.astype(np.float32))).numpy()
        assert np.allclose(y32, y64, atol=1e-4)


class TestFloat32Training:
    """Float32 is the builders' default (the paper trained with PyTorch's
    float32); ``Trainer`` feeds the model batches in its own dtype."""

    def test_loss_curve_tracks_float64(self, velocity_data):
        """The ``trained_channel_model`` recipe, 10 epochs in each dtype
        from the same seed: per-epoch train losses agree within 1e-4
        relative (measured: 2.8e-7)."""
        config = ChannelFNOConfig(n_in=5, n_out=2, n_fields=2, modes1=8, modes2=8,
                                  width=10, n_layers=3)
        X, Y = make_channel_pairs(velocity_data, n_in=config.n_in, n_out=config.n_out)
        normalizer = FieldNormalizer(n_fields=2).fit(X)
        x, y = normalizer.encode(X), normalizer.encode(Y)
        training = TrainingConfig(epochs=10, batch_size=8, learning_rate=3e-3,
                                  scheduler_step=15, scheduler_gamma=0.5, seed=5)
        curves = {}
        for dtype in (None, np.float64):
            kwargs = {} if dtype is None else {"dtype": dtype}
            model = build_model(config, rng=np.random.default_rng(5), **kwargs)
            curves[dtype] = Trainer(model, training).fit(x, y).train_loss
            assert next(model.parameters()).dtype == (dtype or np.float32)
        np.testing.assert_allclose(curves[None], curves[np.float64], rtol=1e-4)

    def test_apply_channels_runs_float32_model_in_float32(self):
        """A float64 window reaches a float32 model as float32, on the
        compiled path and the eager one."""
        x = RNG.standard_normal((1, 2, 16, 16))
        outs = []
        for compiled in (True, False):
            previous = runtime.enabled()
            runtime.set_enabled(compiled)
            try:
                with dtype_sanitizer(mode="raise"):
                    outs.append(apply_channels(_f32_model(), x))
            finally:
                runtime.set_enabled(previous)
        assert [o.dtype for o in outs] == [np.float32, np.float32]
        assert np.array_equal(outs[0], outs[1])

    def test_fit_on_float64_arrays_stays_float32(self, tmp_path):
        cfg = ChannelFNOConfig(n_in=1, n_out=1, n_fields=2, modes1=3, modes2=3,
                               width=6, n_layers=2)
        trainer = Trainer(build_model(cfg, rng=np.random.default_rng(0)),
                          TrainingConfig(epochs=1, batch_size=4, seed=1))
        x = RNG.standard_normal((8, 2, 8, 8))
        y = RNG.standard_normal((8, 2, 8, 8))
        with dtype_sanitizer(mode="raise") as report:
            trainer.fit(x, y, x_val=x, y_val=y)
        assert report.ok
        for _, p in trainer.model.named_parameters():
            assert p.dtype == np.float32 and p.grad.dtype == np.float32
        for moment in trainer.optimizer._m + trainer.optimizer._v:
            assert moment.dtype == np.float32
        path = tmp_path / "ckpt.npz"
        trainer.save_checkpoint(path)
        with np.load(path) as data:
            stored = {k: data[k].dtype for k in data.files if k != "header"}
        assert stored and set(stored.values()) == {np.dtype(np.float32)}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGeluPrecision:
    """float32 GELU runs Abramowitz & Stegun 7.1.26 over per-thread scratch;
    float64 GELU keeps ``scipy.special.erf`` and its bits."""

    def test_float32_within_bound_of_float64_erf(self):
        """Max abs error against float64 ``scipy.special.erf`` over a dense
        grid on [-12, 12] plus ±0, ±1e-30 and ±40: 5e-7 on GELU and 4e-7
        on its derivative (measured: 4.6e-7 and 3.2e-7)."""
        edges = np.float32([0.0, -0.0, 1e-30, -1e-30, 40.0, -40.0])
        x = np.concatenate([np.linspace(-12, 12, 2_000_001, dtype=np.float32), edges])
        y, d = ops.gelu_keep_derivative(x)
        assert y.dtype == d.dtype == np.float32
        x64 = x.astype(np.float64)
        cdf = 0.5 * (1.0 + special.erf(x64 / math.sqrt(2.0)))
        pdf = np.exp(-0.5 * x64 * x64) / math.sqrt(2.0 * math.pi)
        assert np.abs(y - x64 * cdf).max() <= 5e-7
        assert np.abs(d - (cdf + x64 * pdf)).max() <= 4e-7
        assert _same_bits(ops._gelu(x), y)
        assert np.array_equal(np.signbit(y[-6:]), np.signbit(edges))

    def test_float32_non_finite_inputs_follow_the_erf_expression(self):
        """±inf and NaN give what the scipy-erf expressions give in float32:
        GELU(inf) = inf, GELU(-inf) = -inf * 0 = NaN, and a NaN derivative
        (x * exp(-x²/2) is inf * 0 at ±inf)."""
        x = np.float32([np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):
            y, d = ops.gelu_keep_derivative(x)
            cdf = 0.5 * (1.0 + special.erf(x / np.float32(math.sqrt(2.0))))
            want_d = cdf + x * (np.float32(1.0 / math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * x * x))
            np.testing.assert_array_equal(y, x * cdf)
            np.testing.assert_array_equal(d, want_d)
            np.testing.assert_array_equal(ops._gelu(x), y)

    def test_float64_keeps_scipy_erf_bits(self):
        """Eager GELU, the inference forward and the eager gradient equal
        the scipy-erf expressions bit for bit in float64."""
        x = RNG.standard_normal((3, 5, 16, 16))
        g = RNG.standard_normal(x.shape)
        cdf = np.divide(x, math.sqrt(2.0))
        special.erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
        want_y = cdf * x
        want_grad = g * (cdf + x * (1.0 / math.sqrt(2.0 * math.pi) * np.exp(-0.5 * x * x)))

        assert _same_bits(ops._gelu(x), want_y)
        assert _same_bits(ops._gelu(x, np.empty_like(x)), want_y)
        assert _same_bits(ops.gelu(Tensor(x)).data, want_y)
        t = Tensor(x, requires_grad=True)
        y = ops.gelu(t)
        y.backward(g)
        assert _same_bits(y.data, want_y)
        assert _same_bits(t.grad, want_grad)

    @pytest.mark.parametrize("derivative", [False, True])
    def test_float32_allocates_no_input_sized_array(self, derivative):
        x = RNG.standard_normal((2, 128, 32, 32)).astype(np.float32)
        out, d = np.empty_like(x), np.empty_like(x)
        if derivative:
            def run():
                ops.gelu_keep_derivative(x, out, d)
        else:
            def run():
                ops._gelu(x, out)
        run()  # first call on this thread makes its scratch
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes // 16

    def test_float32_scratch_is_per_thread(self):
        """8 threads, each on its own arrays, eager and through one shared
        compiled plan, get the bits a serial run gets."""
        model = FNO(2, 2, (4, 4), width=8, n_layers=2, projection_channels=64,
                    dtype=np.float32, rng=np.random.default_rng(0))
        model.eval()
        rng = np.random.default_rng(12)
        xs = [rng.standard_normal((2, 2, 32, 32)).astype(np.float32) for _ in range(8)]
        hs = [3 * rng.standard_normal((3, 1 << 16)).astype(np.float32) for _ in range(8)]
        plan, _ = trace_model(model, xs[0])
        want = [(ops.gelu(Tensor(h)).data, plan.execute(x)) for h, x in zip(hs, xs)]
        start = threading.Barrier(len(xs))
        failures, done = [], []

        def work(i: int) -> None:
            start.wait(timeout=30)
            for _ in range(10):
                got = (ops.gelu(Tensor(hs[i])).data, plan.execute(xs[i]))
                if not all(_same_bits(a, b) for a, b in zip(got, want[i])):
                    failures.append(i)
            done.append(i)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(xs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(done) == list(range(len(xs)))
        assert failures == []


def paper_forwards() -> dict:
    """The compiled float32 forward of the seeded paper-shaped model at
    batch 1 and 4 (module level, so a child process can run it too)."""
    config = ChannelFNOConfig()
    model = build_model(config, rng=np.random.default_rng(7), dtype=np.float32)
    rng = np.random.default_rng(8)
    out = {}
    for batch in (1, 4):
        x = rng.standard_normal((batch, config.in_channels, 64, 64)).astype(np.float32)
        plan, _ = trace_model(model, x)
        out[f"batch{batch}"] = plan.execute(x)
    return out


class TestBlasThreadCount:
    """A fleet replica runs with its share of the cores as its BLAS thread
    count; the fleet's bitwise checks hold only if that count changes no
    bit of the forward."""

    def test_one_blas_thread_gives_the_default_bits(self, tmp_path):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
        env.update({var: "1" for var in BLAS_THREAD_VARS})
        out = tmp_path / "one_thread.npz"
        subprocess.run(
            [sys.executable, "-c",
             "import sys, numpy as np; from tests.test_float32_path import paper_forwards; "
             "np.savez(sys.argv[1], **paper_forwards())", str(out)],
            env=env, cwd=root, check=True, timeout=300,
        )
        here = paper_forwards()
        with np.load(out) as child:
            assert sorted(child.files) == sorted(here)
            for key, want in here.items():
                assert want.dtype == np.float32
                assert np.array_equal(child[key], want), key
