"""Tensor fundamentals: construction, tape bookkeeping, backward rules."""

import threading

import numpy as np
import pytest

from repro.tensor import Tensor, is_grad_enabled, no_grad, ops, unbroadcast
from repro.tensor import tensor as tensor_module


class TestConstruction:
    def test_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_from_int_array_promotes_to_float(self):
        t = Tensor(np.arange(4))
        assert t.dtype == np.float64

    def test_float32_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float32

    def test_requires_grad_default_off(self):
        assert not Tensor([1.0]).requires_grad

    def test_zeros_ones(self):
        assert np.all(Tensor.zeros((2, 3)).data == 0)
        assert np.all(Tensor.ones((2, 3)).data == 1)
        assert Tensor.zeros((2, 3), requires_grad=True).requires_grad

    def test_shape_properties(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.ndim == 3
        assert t.size == 24
        assert t.numel() == 24
        assert len(t) == 2

    def test_item_scalar(self):
        assert Tensor(3.5).item() == 3.5

    def test_numpy_returns_underlying(self):
        arr = np.zeros(3)
        assert Tensor(arr).numpy() is arr


class TestGradMode:
    def test_no_grad_context(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            x = Tensor([1.0], requires_grad=True)
            assert not x.requires_grad
        assert is_grad_enabled()

    def test_no_grad_nested(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        # Thread A enters, thread B enters, A exits: B is still in its
        # own no-grad block, and afterwards grad mode is on everywhere.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with no_grad():
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def thread_b():
            a_in.wait(10)
            with no_grad():
                b_in.set()
                a_out.wait(10)
                seen["inside"] = is_grad_enabled()
            seen["after"] = is_grad_enabled()

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert seen == {"inside": False, "after": True}
        assert is_grad_enabled()
        assert Tensor([1.0], requires_grad=True).requires_grad

    def test_no_grad_ops_produce_leaf(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._parents == ()

    def test_detach_cuts_tape(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * 3.0).detach()
        assert not y.requires_grad
        assert y.data[0] == 6.0

    def test_copy_independent(self):
        x = Tensor([1.0])
        y = x.copy()
        y.data[0] = 5.0
        assert x.data[0] == 1.0


class TestBackward:
    def test_scalar_backward_seeds_one(self):
        x = Tensor([3.0], requires_grad=True)
        (x * x).sum().backward()
        assert np.allclose(x.grad, [6.0])

    def test_backward_requires_grad_error(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_nonscalar_backward_needs_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError):
            y.backward()
        y = x * 2.0
        y.backward(np.array([1.0, 1.0]))
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_backward_grad_shape_mismatch(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 1.0
        with pytest.raises(ValueError):
            y.backward(np.zeros(3))

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        assert np.allclose(x.grad, [5.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_shared_subexpression_counted_once_per_path(self):
        # y = x*x used twice: dL/dx = 2 * d(x^2)/dx = 4x
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        (y + y).sum().backward()
        assert np.allclose(x.grad, [12.0])

    def test_self_addition_aliasing(self):
        # x + x must give gradient 2, with no aliasing corruption.
        x = Tensor([1.0, 2.0], requires_grad=True)
        z = x + x
        z.sum().backward()
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_aliasing_across_two_consumers(self):
        # Regression: storing a cotangent by reference then += into it
        # must not corrupt a sibling's gradient.
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([1.0], requires_grad=True)
        z = x + y          # same cotangent array flows to both parents
        w = x * 10.0       # second consumer mutates x.grad afterwards
        (z.sum() + w.sum()).backward()
        assert np.allclose(y.grad, [1.0])
        assert np.allclose(x.grad, [11.0])

    def test_diamond_graph(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x * 4.0
        (a * b).sum().backward()  # d/dx 12x^2 = 24x
        assert np.allclose(x.grad, [48.0])

    def test_interior_grads_freed(self):
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0
        z = y * 3.0
        z.sum().backward()
        assert y.grad is None  # interior node grads are released
        assert x.grad is not None

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        assert np.allclose(x.grad, [1.0])


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sum_prepended_axis(self):
        g = np.ones((4, 2, 3))
        assert unbroadcast(g, (2, 3)).shape == (2, 3)
        assert np.all(unbroadcast(g, (2, 3)) == 4)

    def test_sum_stretched_axis(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, (2, 1))
        assert out.shape == (2, 1)
        assert np.all(out == 3)

    def test_combined(self):
        g = np.ones((5, 2, 3))
        out = unbroadcast(g, (1, 3))
        assert out.shape == (1, 3)
        assert np.all(out == 10)

    def test_scalar_target(self):
        g = np.ones((2, 2))
        out = unbroadcast(g, ())
        assert out.shape == ()
        assert out == 4


class TestAstype:
    def test_forward(self):
        x = Tensor(np.ones(3))
        assert x.astype(np.float32).dtype == np.float32

    def test_gradient_flows(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x.astype(np.float32) * 2.0
        y.sum().backward()
        assert x.grad.dtype == np.float64
        assert np.allclose(x.grad, 2.0)


class TestOpObservers:
    def test_observers_are_counted(self):
        calls = []

        def observer(out, parents):
            calls.append(out)

        tensor_module.add_observer(observer)
        tensor_module.add_observer(observer)
        tensor_module.remove_observer(observer)
        y = Tensor([1.0]) * 2.0
        tensor_module.remove_observer(observer)
        Tensor([1.0]) * 2.0
        assert calls == [y]
        assert observer not in tensor_module._OBSERVERS

    def test_recorder_exit_inside_profiling_removes_its_tag(self):
        # Recorder enter, a second observer (the dtype sanitizer's) on,
        # Recorder exit, sanitizer off: the recorder keeps what it saw,
        # and no tagging outlives it.
        from repro.checks import dtype_sanitizer
        from repro.tensor import recording

        x = Tensor(np.ones(3), requires_grad=True)
        recorder = recording.Recorder()
        recorder.__enter__()
        inside = x * 3.0
        sanitizer = dtype_sanitizer(mode="record")
        sanitizer.__enter__()
        recorder.__exit__(None, None, None)
        sanitizer.__exit__(None, None, None)
        after = [x * 2.0 for _ in range(10)]
        assert recorder.saw_from_op(inside)
        assert not any(recorder.saw_from_op(t) for t in after)
        assert tensor_module._OBSERVERS == ()
