"""Sharded (out-of-core) dataset generation and iteration."""

import numpy as np
import pytest

from repro.data import (
    DataGenConfig,
    FieldNormalizer,
    ShardedWindowDataset,
    generate_dataset,
    generate_sharded_dataset,
    make_channel_pairs,
    stack_fields,
)

CFG = DataGenConfig(n=16, reynolds=200, n_samples=5, warmup=0.05, duration=0.2,
                    sample_interval=0.05, solver="spectral", ic="band", seed=9)


@pytest.fixture(scope="module")
def shards(tmp_path_factory):
    out = tmp_path_factory.mktemp("shards")
    paths = generate_sharded_dataset(CFG, out, samples_per_shard=2, n_workers=1)
    return paths


class TestGeneration:
    def test_shard_count_and_sizes(self, shards):
        assert len(shards) == 3  # 2 + 2 + 1 samples
        from repro.data import load_samples

        counts = [len(load_samples(p)[0]) for p in shards]
        assert counts == [2, 2, 1]

    def test_matches_monolithic_generation(self, shards):
        """Sharding is storage-only: samples equal the single-shot run."""
        from repro.data import load_samples

        mono = generate_dataset(CFG, n_workers=1)
        sharded = []
        for p in shards:
            sharded.extend(load_samples(p)[0])
        assert len(sharded) == len(mono)
        for a, b in zip(mono, sharded):
            assert a.sample_id == b.sample_id
            assert np.allclose(a.vorticity, b.vorticity, atol=1e-6)  # float32 shard cast

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            generate_sharded_dataset(CFG, tmp_path, samples_per_shard=0)


class TestIteration:
    def test_batches_cover_all_windows(self, shards):
        ds = ShardedWindowDataset(shards, n_in=2, n_out=1, batch_size=3, shuffle=False)
        seen = 0
        for xb, yb in ds:
            assert xb.shape[1] == 4  # 2 snapshots × 2 fields
            assert yb.shape[1] == 2
            assert xb.shape[0] == yb.shape[0]
            seen += xb.shape[0]
        assert seen == ds.n_windows()

    def test_unshuffled_matches_in_memory_windows(self, shards):
        from repro.data import load_samples

        ds = ShardedWindowDataset(shards, n_in=2, n_out=1, batch_size=1000, shuffle=False)
        batches = [xb.numpy() for xb, _ in ds]
        streamed = np.concatenate(batches)

        all_samples = []
        for p in shards:
            all_samples.extend(load_samples(p)[0])
        X, _ = make_channel_pairs(stack_fields(all_samples, "velocity"), n_in=2, n_out=1)
        assert np.allclose(streamed, X)

    def test_shuffle_changes_order(self, shards):
        ds = ShardedWindowDataset(shards, n_in=2, n_out=1, batch_size=1000, shuffle=True, rng=0)
        first = np.concatenate([xb.numpy() for xb, _ in ds])
        ds2 = ShardedWindowDataset(shards, n_in=2, n_out=1, batch_size=1000, shuffle=False)
        ordered = np.concatenate([xb.numpy() for xb, _ in ds2])
        assert first.shape == ordered.shape
        assert not np.allclose(first, ordered)

    def test_validation(self, shards, tmp_path):
        with pytest.raises(ValueError):
            ShardedWindowDataset([])
        with pytest.raises(FileNotFoundError):
            ShardedWindowDataset([tmp_path / "missing.npz"])


class TestStreamingNormalizer:
    def test_matches_in_memory_fit(self, shards):
        from repro.data import load_samples

        ds = ShardedWindowDataset(shards, n_in=2, n_out=1, shuffle=False)
        streamed = ds.fit_normalizer(FieldNormalizer(n_fields=2))

        all_samples = []
        for p in shards:
            all_samples.extend(load_samples(p)[0])
        X, _ = make_channel_pairs(stack_fields(all_samples, "velocity"), n_in=2, n_out=1)
        in_memory = FieldNormalizer(n_fields=2).fit(X)

        assert np.allclose(streamed.mean, in_memory.mean, atol=1e-10)
        assert np.allclose(streamed.std, in_memory.std, rtol=1e-8)

    def test_isotropic_streaming(self, shards):
        ds = ShardedWindowDataset(shards, n_in=2, n_out=1, shuffle=False)
        norm = ds.fit_normalizer(FieldNormalizer(n_fields=2, isotropic=True))
        assert norm.std[0] == norm.std[1]

    def test_trains_a_model_from_shards(self, shards):
        """End-to-end: stream batches into the training loop."""
        from repro.core import ChannelFNOConfig, build_model
        from repro.nn import LpLoss
        from repro.optim import Adam

        ds = ShardedWindowDataset(shards, n_in=2, n_out=1, batch_size=4, shuffle=True, rng=1)
        norm = ds.fit_normalizer(FieldNormalizer(n_fields=2))
        model = build_model(
            ChannelFNOConfig(n_in=2, n_out=1, n_fields=2, modes1=3, modes2=3,
                             width=6, n_layers=2),
            rng=np.random.default_rng(0),
        )
        opt = Adam(model.parameters(), lr=3e-3)
        loss_fn = LpLoss()
        losses = []
        for _ in range(4):  # epochs
            epoch = []
            for xb, yb in ds:
                from repro.tensor import Tensor

                model.zero_grad()
                loss = loss_fn(model(Tensor(norm.encode(xb.numpy()))),
                               Tensor(norm.encode(yb.numpy())))
                loss.backward()
                opt.step()
                epoch.append(loss.item())
            losses.append(np.mean(epoch))
        assert losses[-1] < losses[0]
