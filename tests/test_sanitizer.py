"""Runtime dtype-sanitizer tests.

The sanitizer is the dynamic half of RPR001: the static rule catches the
promotions visible in source, this context manager catches the ones only
runtime dtypes reveal.  The end-to-end test runs a float32 FNO forward
and backward under the sanitizer — the regression gate for the
scipy.fft/complex64 policy in the hot path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.checks import DtypePromotionError, dtype_sanitizer, sanitizer
from repro.nn import FNO, LpLoss
from repro.tensor import Tensor, no_grad
from repro.tensor import ops
from repro.tensor import tensor as tensor_module


def _f32(*shape):
    return np.random.default_rng(7).standard_normal(shape).astype(np.float32)


class TestSanitizerCore:
    def test_clean_f32_op_passes(self):
        with dtype_sanitizer() as report:
            out = ops.mul(Tensor(_f32(4, 4)), Tensor(_f32(4, 4)))
        assert out.dtype == np.float32
        assert report.ok

    def test_mixed_precision_raises(self):
        a = Tensor(_f32(4, 4))
        b = Tensor(np.float64(2.0))  # an f64 operand leaking into the f32 path
        with pytest.raises(DtypePromotionError):
            with dtype_sanitizer():
                ops.mul(a, b)

    def test_synthetic_promotion_raises(self):
        x = Tensor(_f32(4,))
        with pytest.raises(DtypePromotionError, match="promotion"):
            with dtype_sanitizer():
                # An op body that silently widens, as np.fft would.
                Tensor.from_op(x.data.astype(np.float64), (x,), lambda g: None)

    def test_record_mode_collects_without_raising(self):
        x = Tensor(_f32(4,))
        with dtype_sanitizer(mode="record") as report:
            Tensor.from_op(x.data.astype(np.float64), (x,), lambda g: None)
            Tensor.from_op(x.data * 2, (x,), lambda g: None)
        assert len(report.violations) == 1
        assert "float64" in report.violations[0]

    def test_float64_pipeline_unaffected(self):
        x = Tensor(np.random.default_rng(3).standard_normal((4, 4)))
        with dtype_sanitizer() as report:
            ops.matmul(x, x)
        assert report.ok

    def test_patch_is_restored_after_exit(self):
        with dtype_sanitizer():
            assert sanitizer._check in tensor_module._OBSERVERS
        assert sanitizer._check not in tensor_module._OBSERVERS

    def test_nested_contexts_restore_once(self):
        with dtype_sanitizer() as outer:
            with dtype_sanitizer(mode="record") as inner:
                x = Tensor(_f32(3,))
                Tensor.from_op(x.data.astype(np.float64), (x,), lambda g: None)
            assert sanitizer._check in tensor_module._OBSERVERS
        assert sanitizer._check not in tensor_module._OBSERVERS
        # Both active contexts observed the violation; only the inner
        # (record-mode) one kept it from raising.
        assert len(inner.violations) == 1 and len(outer.violations) == 1

    def test_profiling_exit_inside_the_context_keeps_checking(self):
        # Profiling on, sanitizer on, profiling off: profiling owns no
        # observer, so the sanitizer still checks and nothing is left over.
        from repro.obs import hooks

        x = Tensor(_f32(4,))
        profiling = hooks.profile()
        profiling.__enter__()
        try:
            with dtype_sanitizer(mode="record") as report:
                assert tensor_module._OBSERVERS == (sanitizer._check,)
                profiling.__exit__(None, None, None)
                profiling = None
                Tensor.from_op(x.data.astype(np.float64), (x,), lambda g: None)
        finally:
            if profiling is not None:
                profiling.__exit__(None, None, None)
        assert len(report.violations) == 1
        assert tensor_module._OBSERVERS == ()

    def test_outside_context_nothing_is_checked(self):
        x = Tensor(_f32(4,))
        out = Tensor.from_op(x.data.astype(np.float64), (x,), lambda g: None)
        assert out.dtype == np.float64  # no sanitizer, no error


class TestSanitizerEndToEnd:
    def test_f32_fno_forward_backward_is_promotion_free(self):
        """The hot serving path: a float32 FNO must never widen."""
        model = FNO(2, 2, (4, 4), width=8, n_layers=2,
                    dtype=np.float32, rng=np.random.default_rng(0))
        x = Tensor(_f32(2, 2, 16, 16))
        y = Tensor(_f32(2, 2, 16, 16))
        with dtype_sanitizer() as report:
            loss = LpLoss()(model(x), y)
            loss.backward()
        assert report.ok
        with dtype_sanitizer(), no_grad():
            out = model(Tensor(_f32(1, 2, 16, 16)))
        assert out.dtype == np.float32
