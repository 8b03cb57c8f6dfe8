"""Spectral-convolution primitives: adjoint identities and gradcheck.

The adjoint identities are the load-bearing math of the whole FNO stack:
``<irfftn(Y), g> = <Y, irfftn_adjoint(g)>`` and the rfftn counterpart,
over the real inner product, for every grid parity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor
from repro.tensor.fft_ops import (
    complex_weights,
    half_spectrum_weights,
    irfftn_adjoint,
    mode_blocks,
    mode_mix,
    rfftn_adjoint,
    spectral_conv,
)

RNG = np.random.default_rng(11)


def real_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float((a.real * b.real).sum() + (a.imag * b.imag).sum())


class TestHalfSpectrumWeights:
    def test_even_length(self):
        w = half_spectrum_weights(8)
        assert w.shape == (5,)
        assert w[0] == 1.0 and w[-1] == 1.0
        assert np.all(w[1:-1] == 2.0)

    def test_odd_length(self):
        w = half_spectrum_weights(7)
        assert w.shape == (4,)
        assert w[0] == 1.0
        assert np.all(w[1:] == 2.0)

    def test_weights_sum_to_n(self):
        for n in (4, 5, 8, 9):
            assert half_spectrum_weights(n).sum() == n


class TestAdjointIdentities2D:
    @pytest.mark.parametrize("n1,n2", [(8, 8), (7, 6), (6, 7), (5, 5), (4, 10)])
    def test_irfft2_adjoint(self, n1, n2):
        m = n2 // 2 + 1
        Y = RNG.standard_normal((n1, m)) + 1j * RNG.standard_normal((n1, m))
        g = RNG.standard_normal((n1, n2))
        lhs = float((np.fft.irfftn(Y, s=(n1, n2), axes=(-2, -1)) * g).sum())
        rhs = real_inner(Y, irfftn_adjoint(g, axes=(-2, -1), s=(n1, n2)))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n1,n2", [(8, 8), (7, 6), (6, 7), (5, 5)])
    def test_rfft2_adjoint(self, n1, n2):
        m = n2 // 2 + 1
        x = RNG.standard_normal((n1, n2))
        G = RNG.standard_normal((n1, m)) + 1j * RNG.standard_normal((n1, m))
        lhs = real_inner(np.fft.rfftn(x, axes=(-2, -1)), G)
        rhs = float((x * rfftn_adjoint(G, axes=(-2, -1), s=(n1, n2))).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(
        n1=st.integers(min_value=4, max_value=12),
        n2=st.integers(min_value=4, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_irfft2_adjoint_property(self, n1, n2, seed):
        rng = np.random.default_rng(seed)
        m = n2 // 2 + 1
        Y = rng.standard_normal((n1, m)) + 1j * rng.standard_normal((n1, m))
        g = rng.standard_normal((n1, n2))
        lhs = float((np.fft.irfftn(Y, s=(n1, n2), axes=(-2, -1)) * g).sum())
        rhs = real_inner(Y, irfftn_adjoint(g, axes=(-2, -1), s=(n1, n2)))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestAdjointIdentities3D:
    @pytest.mark.parametrize("shape", [(4, 6, 8), (5, 4, 7), (6, 6, 6)])
    def test_irfftn_adjoint(self, shape):
        m = shape[-1] // 2 + 1
        Y = RNG.standard_normal(shape[:-1] + (m,)) + 1j * RNG.standard_normal(shape[:-1] + (m,))
        g = RNG.standard_normal(shape)
        lhs = float((np.fft.irfftn(Y, s=shape, axes=(-3, -2, -1)) * g).sum())
        rhs = real_inner(Y, irfftn_adjoint(g, axes=(-3, -2, -1), s=shape))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("shape", [(4, 6, 8), (5, 4, 7)])
    def test_rfftn_adjoint(self, shape):
        m = shape[-1] // 2 + 1
        x = RNG.standard_normal(shape)
        G = RNG.standard_normal(shape[:-1] + (m,)) + 1j * RNG.standard_normal(shape[:-1] + (m,))
        lhs = real_inner(np.fft.rfftn(x, axes=(-3, -2, -1)), G)
        rhs = float((x * rfftn_adjoint(G, axes=(-3, -2, -1), s=shape)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_roundtrip_adjoint_consistency(self):
        # adjoint(rfftn) ∘ adjoint(irfftn) == adjoint(irfftn ∘ rfftn) == identity
        # on real fields (since irfftn(rfftn(x)) == x).
        shape = (6, 8)
        g = RNG.standard_normal(shape)
        G = irfftn_adjoint(g, axes=(-2, -1), s=shape)
        back = rfftn_adjoint(G, axes=(-2, -1), s=shape)
        assert np.allclose(back, g)


class TestModeBlocks:
    def test_2d_blocks_disjoint(self):
        blocks = mode_blocks((8, 8), (3, 4))
        rows = set(range(*blocks[0][0].indices(8))) & set(range(*blocks[1][0].indices(8)))
        assert not rows

    def test_2d_blocks_full_when_half(self):
        blocks = mode_blocks((8, 8), (4, 4))
        covered = set(range(*blocks[0][0].indices(8))) | set(range(*blocks[1][0].indices(8)))
        assert covered == set(range(8))

    def test_2d_too_many_modes(self):
        with pytest.raises(ValueError):
            mode_blocks((8, 8), (5, 4))

    def test_3d_four_blocks(self):
        blocks = mode_blocks((8, 8, 8), (2, 2, 3))
        assert len(blocks) == 4

    def test_3d_too_many_modes(self):
        with pytest.raises(ValueError):
            mode_blocks((8, 6, 8), (2, 4, 2))

    @pytest.mark.parametrize("grid, modes", [((8, 8), (2, 3)), ((8, 6, 8), (2, 2, 3))])
    def test_block_order_one_hot(self, grid, modes):
        # A one-hot weight in block b passes exactly corner b of the input
        # spectrum, where full axis j is negative iff bit j of b is set
        # (first full axis fastest) — the layout trained weights rely on.
        d = len(grid)
        axes = tuple(range(-d, 0))
        x = np.random.default_rng(0).standard_normal((1, 1) + grid)
        X = np.fft.rfftn(x[0, 0])
        for b in range(2 ** (d - 1)):
            wr = np.zeros((2 ** (d - 1), 1, 1) + modes)
            wr[b] = 1.0
            out = spectral_conv(Tensor(x), Tensor(wr), Tensor(np.zeros_like(wr)), modes)
            spec = np.fft.rfftn(out.data[0, 0], axes=axes)
            corner = tuple(
                slice(n - m, n) if (b >> j) & 1 else slice(0, m)
                for j, (n, m) in enumerate(zip(grid[:-1], modes[:-1]))
            ) + (slice(1, modes[-1]),)
            # irfftn Hermitian-symmetrises the k_last = 0 plane, mirroring
            # each corner onto its opposite there; compare above that plane.
            mask = np.zeros(spec.shape, dtype=bool)
            mask[corner] = True
            assert np.abs(spec[..., 1:][~mask[..., 1:]]).max() < 1e-10
            assert np.allclose(spec[mask], X[mask], atol=1e-10)


def _fd_check(tensors, build, tol=1e-6, n_checks=5):
    out = build(*tensors)
    w = RNG.standard_normal(out.shape)
    (out * w).sum().backward()
    for t in tensors:
        arrays = [x.data for x in tensors]
        flat = t.data.reshape(-1)
        for i in RNG.choice(flat.size, size=min(n_checks, flat.size), replace=False):
            old = flat[i]
            eps = 1e-6
            flat[i] = old + eps
            fp = float((build(*[Tensor(a) for a in arrays]).data * w).sum())
            flat[i] = old - eps
            fm = float((build(*[Tensor(a) for a in arrays]).data * w).sum())
            flat[i] = old
            assert t.grad.reshape(-1)[i] == pytest.approx((fp - fm) / (2 * eps), abs=tol)


class TestSpectralConv2d:
    def test_output_shape(self):
        x = Tensor(RNG.standard_normal((2, 3, 8, 8)))
        wr = Tensor(RNG.standard_normal((2, 3, 5, 3, 3)))
        wi = Tensor(RNG.standard_normal((2, 3, 5, 3, 3)))
        out = spectral_conv(x, wr, wi, (3, 3))
        assert out.shape == (2, 5, 8, 8)

    def test_gradcheck(self):
        x = Tensor(RNG.standard_normal((2, 2, 8, 8)), requires_grad=True)
        wr = Tensor(0.1 * RNG.standard_normal((2, 2, 2, 3, 3)), requires_grad=True)
        wi = Tensor(0.1 * RNG.standard_normal((2, 2, 2, 3, 3)), requires_grad=True)
        _fd_check([x, wr, wi], lambda a, b, c: spectral_conv(a, b, c, (3, 3)))

    def test_odd_grid_gradcheck(self):
        x = Tensor(RNG.standard_normal((1, 2, 7, 7)), requires_grad=True)
        wr = Tensor(0.1 * RNG.standard_normal((2, 2, 2, 3, 3)), requires_grad=True)
        wi = Tensor(0.1 * RNG.standard_normal((2, 2, 2, 3, 3)), requires_grad=True)
        _fd_check([x, wr, wi], lambda a, b, c: spectral_conv(a, b, c, (3, 3)))

    def test_linearity_in_input(self):
        wr = Tensor(RNG.standard_normal((2, 2, 2, 3, 3)))
        wi = Tensor(RNG.standard_normal((2, 2, 2, 3, 3)))
        x1 = RNG.standard_normal((1, 2, 8, 8))
        x2 = RNG.standard_normal((1, 2, 8, 8))
        f = lambda x: spectral_conv(Tensor(x), wr, wi, (3, 3)).data
        assert np.allclose(f(2.0 * x1 + 3.0 * x2), 2.0 * f(x1) + 3.0 * f(x2))

    def test_translation_equivariance(self):
        # Spectral convolution commutes with circular shifts.
        wr = Tensor(RNG.standard_normal((2, 2, 2, 3, 3)))
        wi = Tensor(RNG.standard_normal((2, 2, 2, 3, 3)))
        x = RNG.standard_normal((1, 2, 8, 8))
        f = lambda x: spectral_conv(Tensor(x), wr, wi, (3, 3)).data
        shifted = np.roll(x, (2, 3), axis=(2, 3))
        assert np.allclose(f(shifted), np.roll(f(x), (2, 3), axis=(2, 3)), atol=1e-12)

    def test_band_limiting(self):
        # Output contains no energy beyond the retained modes.
        wr = Tensor(RNG.standard_normal((2, 1, 1, 2, 2)))
        wi = Tensor(RNG.standard_normal((2, 1, 1, 2, 2)))
        x = RNG.standard_normal((1, 1, 16, 16))
        out = spectral_conv(Tensor(x), wr, wi, (2, 2)).data
        spec = np.fft.rfft2(out[0, 0])
        assert np.abs(spec[4:12, :]).max() < 1e-10
        assert np.abs(spec[:, 3:]).max() < 1e-10

    def test_rejects_bad_modes(self):
        x = Tensor(RNG.standard_normal((1, 1, 8, 8)))
        wr = Tensor(RNG.standard_normal((2, 1, 1, 3, 6)))
        wi = Tensor(RNG.standard_normal((2, 1, 1, 3, 6)))
        with pytest.raises(ValueError):
            spectral_conv(x, wr, wi, (3, 6))

    def test_rejects_channel_mismatch(self):
        x = Tensor(RNG.standard_normal((1, 4, 8, 8)))
        wr = Tensor(RNG.standard_normal((2, 3, 2, 3, 3)))
        wi = Tensor(RNG.standard_normal((2, 3, 2, 3, 3)))
        with pytest.raises(ValueError):
            spectral_conv(x, wr, wi, (3, 3))

    def test_float32_output_dtype(self):
        x = Tensor(RNG.standard_normal((1, 1, 8, 8)).astype(np.float32))
        wr = Tensor(RNG.standard_normal((2, 1, 1, 2, 2)).astype(np.float32))
        wi = Tensor(RNG.standard_normal((2, 1, 1, 2, 2)).astype(np.float32))
        assert spectral_conv(x, wr, wi, (2, 2)).dtype == np.float32


class TestSpectralConv3d:
    def test_output_shape(self):
        x = Tensor(RNG.standard_normal((2, 3, 6, 6, 10)))
        wr = Tensor(RNG.standard_normal((4, 3, 4, 2, 2, 3)))
        wi = Tensor(RNG.standard_normal((4, 3, 4, 2, 2, 3)))
        assert spectral_conv(x, wr, wi, (2, 2, 3)).shape == (2, 4, 6, 6, 10)

    def test_gradcheck(self):
        x = Tensor(RNG.standard_normal((1, 2, 6, 6, 5)), requires_grad=True)
        wr = Tensor(0.1 * RNG.standard_normal((4, 2, 2, 2, 2, 2)), requires_grad=True)
        wi = Tensor(0.1 * RNG.standard_normal((4, 2, 2, 2, 2, 2)), requires_grad=True)
        _fd_check([x, wr, wi], lambda a, b, c: spectral_conv(a, b, c, (2, 2, 2)))

    def test_translation_equivariance_spatial(self):
        wr = Tensor(RNG.standard_normal((4, 1, 1, 2, 2, 2)))
        wi = Tensor(RNG.standard_normal((4, 1, 1, 2, 2, 2)))
        x = RNG.standard_normal((1, 1, 8, 8, 6))
        f = lambda x: spectral_conv(Tensor(x), wr, wi, (2, 2, 2)).data
        shifted = np.roll(x, (3, 1), axis=(2, 3))
        assert np.allclose(f(shifted), np.roll(f(x), (3, 1), axis=(2, 3)), atol=1e-12)

    def test_rejects_bad_modes(self):
        x = Tensor(RNG.standard_normal((1, 1, 6, 6, 6)))
        wr = Tensor(RNG.standard_normal((4, 1, 1, 4, 2, 2)))
        wi = Tensor(RNG.standard_normal((4, 1, 1, 4, 2, 2)))
        with pytest.raises(ValueError):
            spectral_conv(x, wr, wi, (4, 2, 2))


class TestBatchInvariantKernels:
    """The serving path's determinism contract: batch size never changes bits."""

    def test_spectral_conv2d_batch_invariant(self):
        wr = Tensor(RNG.standard_normal((2, 3, 3, 2, 2)))
        wi = Tensor(RNG.standard_normal((2, 3, 3, 2, 2)))
        x = RNG.standard_normal((6, 3, 8, 8))
        full = spectral_conv(Tensor(x), wr, wi, (2, 2)).data
        singles = np.concatenate(
            [spectral_conv(Tensor(x[i : i + 1]), wr, wi, (2, 2)).data for i in range(6)]
        )
        assert np.array_equal(full, singles)

    def test_mode_mix_matches_einsum_reference(self):
        rng = np.random.default_rng(12)
        for dtype, ctype, tol in ((np.float32, np.complex64, 1e-6),
                                  (np.float64, np.complex128, 1e-13)):
            X = rng.standard_normal((5, 6, 16, 4)) + 1j * rng.standard_normal((5, 6, 16, 4))
            X = X.astype(ctype)[:, :, :4]  # a strided block, as the op passes it
            wr, wi = rng.standard_normal((2, 1, 6, 7, 4, 4)).astype(dtype)
            W = complex_weights(wr, wi)
            assert W.shape == (1, 4, 4, 6, 7) and W.flags.c_contiguous
            want = np.einsum("bixy,ioxy->boxy", X.astype(np.complex128),
                             (wr + 1j * wi)[0].astype(np.complex128))
            got = mode_mix(X, W[0])
            assert got.dtype == ctype and got.shape == (5, 7, 4, 4)
            assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))

    @pytest.mark.parametrize("batch", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("modes,grid", [((5,), (16,)), ((3, 4), (8, 10)),
                                            ((2, 3, 2), (6, 8, 4))],
                             ids=["rank1", "rank2", "rank3"])
    def test_batched_equals_single_on_every_path(self, modes, grid, dtype, batch):
        # No context and no option: sample i of a batch-B call equals its
        # batch-1 call bit for bit, eager, compiled and in a training plan.
        from repro import compile as rc
        from repro.compile.train import build_train_plan
        from repro.nn import SpectralConv
        from repro.tensor.recording import Recorder

        layer = SpectralConv(3, 4, modes, rng=np.random.default_rng(13), dtype=dtype)
        x = np.random.default_rng(14).standard_normal((batch, 3) + grid).astype(dtype)

        def eager(a):
            return layer(Tensor(a)).data

        def inference(a):
            return rc.trace_model(layer, a)[0].execute(a)

        def train_forward(a):
            inp = Tensor(a)
            with Recorder() as recorder:
                out = layer(inp)
            return build_train_plan(recorder, inp, out).forward(a).data

        for run in (eager, inference, train_forward):
            full = run(x)
            for i in range(batch):
                single = run(x[i : i + 1])
                assert full[i : i + 1].tobytes() == single.tobytes(), (run.__name__, i)
