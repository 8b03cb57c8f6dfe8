"""Extension — forced (sustained) turbulence.

The paper studies decaying turbulence and names forced turbulence as the
natural next case (Sec. I).  This benchmark exercises the full pipeline
on Kolmogorov-forced flow:

* the forced trajectories reach a statistically sustained state (energy
  does not decay to zero, unlike the decaying dataset);
* the same channel-FNO architecture learns the forced dynamics and beats
  the persistence baseline on held-out windows.
"""

import numpy as np

from common import print_table, write_results
from repro.analysis import kinetic_energy_evolution, per_snapshot_relative_l2
from repro.core import ChannelFNOConfig, Trainer, TrainingConfig, build_model
from repro.data import (
    DataGenConfig,
    FieldNormalizer,
    generate_dataset,
    make_channel_pairs,
    stack_fields,
    train_test_split_samples,
)
from repro.tensor import Tensor, no_grad

N_IN, N_OUT = 5, 5

FORCED_CONFIG = DataGenConfig(
    n=32, reynolds=800.0, n_samples=6, warmup=1.0, duration=0.6,
    sample_interval=0.02, solver="spectral", ic="band", seed=31,
    forcing="kolmogorov", forcing_amplitude=0.8, forcing_k=2,
)
DECAY_CONFIG = DataGenConfig(
    n=32, reynolds=800.0, n_samples=6, warmup=1.0, duration=0.6,
    sample_interval=0.02, solver="spectral", ic="band", seed=31,
)


def run_forced():
    forced = generate_dataset(FORCED_CONFIG, n_workers=1)
    decaying = generate_dataset(DECAY_CONFIG, n_workers=1)

    ke_forced = np.stack([kinetic_energy_evolution(s.velocity) for s in forced])
    ke_decay = np.stack([kinetic_energy_evolution(s.velocity) for s in decaying])

    train_s, test_s = train_test_split_samples(forced, n_test=2, rng=np.random.default_rng(0))
    X, Y = make_channel_pairs(stack_fields(train_s, "velocity"), N_IN, N_OUT)
    Xt, Yt = make_channel_pairs(stack_fields(test_s, "velocity"), N_IN, N_OUT, stride=N_OUT)
    norm = FieldNormalizer(n_fields=2).fit(X)

    model = build_model(
        ChannelFNOConfig(n_in=N_IN, n_out=N_OUT, n_fields=2, modes1=8, modes2=8,
                         width=12, n_layers=3),
        rng=np.random.default_rng(1),
    )
    trainer = Trainer(model, TrainingConfig(epochs=45, batch_size=8, learning_rate=3e-3,
                                            scheduler_step=15, scheduler_gamma=0.5, seed=1))
    trainer.fit(norm.encode(X), norm.encode(Y))

    with no_grad():
        pred = norm.decode(model(Tensor(norm.encode(Xt))).numpy())
    model_err = per_snapshot_relative_l2(pred, Yt, n_fields=2)
    persistence = np.concatenate([Xt[:, -2:]] * N_OUT, axis=1)
    base_err = per_snapshot_relative_l2(persistence, Yt, n_fields=2)
    return ke_forced, ke_decay, model_err, base_err


def test_forced_turbulence(benchmark):
    ke_forced, ke_decay, model_err, base_err = benchmark.pedantic(run_forced, rounds=1, iterations=1)

    print_table(
        "Extension — forced turbulence: energy sustenance and FNO accuracy",
        ["quantity", "value"],
        [
            ["KE forced: end/start", float(ke_forced[:, -1].mean() / ke_forced[:, 0].mean())],
            ["KE decaying: end/start", float(ke_decay[:, -1].mean() / ke_decay[:, 0].mean())],
            ["FNO mean rel L2", float(model_err.mean())],
            ["persistence mean rel L2", float(base_err.mean())],
        ],
    )

    # Forcing sustains the flow where the decaying case loses energy.
    assert ke_forced[:, -1].mean() / ke_forced[:, 0].mean() > 0.8
    assert ke_decay[:, -1].mean() / ke_decay[:, 0].mean() < 0.8
    # The FNO learns forced dynamics better than persistence.
    assert model_err.mean() < base_err.mean()
    assert model_err.mean() < 0.5

    write_results("forced_turbulence", {
        "ke_forced_ratio": float(ke_forced[:, -1].mean() / ke_forced[:, 0].mean()),
        "ke_decay_ratio": float(ke_decay[:, -1].mean() / ke_decay[:, 0].mean()),
        "model_err": model_err,
        "persistence_err": base_err,
    })


if __name__ == "__main__":
    from common import bench_entry

    bench_entry(run_forced)
