"""Extension — the paper's proposed 3-D framework (Sec. VII).

"An extension of the present framework to 3D should be straightforward
with 3D FNO for spatial and channels for temporal dimensions."  This
benchmark implements exactly that: decaying 3-D turbulence from the
pseudo-spectral 3-D solver, a 3-D-spatial FNO with temporal channels,
and the same training protocol.  Checks:

* the substrate is sound (divergence-free, energy decays);
* the spatial-3D channel FNO learns the one-window map better than the
  persistence and zero baselines.
"""

import numpy as np

from common import print_table, write_results
from repro.core import Spatial3DChannelsConfig, Trainer, TrainingConfig, build_model
from repro.data import FieldNormalizer, make_channel_pairs
from repro.ns3d import SpectralNSSolver3D, kinetic_energy3d, random_solenoidal_velocity
from repro.tensor import Tensor, no_grad

GRID = 16
N_IN, N_OUT = 3, 2
N_SAMPLES = 5
N_SNAPSHOTS = 11
SAMPLE_INTERVAL = 0.02  # t_c units
REYNOLDS = 400.0


def _generate_3d_dataset():
    """(S, T, 3, n, n, n) velocity trajectories of decaying 3-D turbulence."""
    t_c = 2 * np.pi
    nu = t_c / REYNOLDS
    data = np.empty((N_SAMPLES, N_SNAPSHOTS, 3, GRID, GRID, GRID))
    ke0, ke1 = [], []
    for i in range(N_SAMPLES):
        solver = SpectralNSSolver3D(GRID, nu)
        solver.set_velocity(
            random_solenoidal_velocity(GRID, np.random.default_rng(100 + i), k_peak=2.5)
        )
        solver.advance(0.2 * t_c)  # warm-up
        for t in range(N_SNAPSHOTS):
            if t > 0:
                solver.advance(SAMPLE_INTERVAL * t_c)
            data[i, t] = solver.velocity
        ke0.append(kinetic_energy3d(data[i, 0]))
        ke1.append(kinetic_energy3d(data[i, -1]))
    return data, np.array(ke0), np.array(ke1)


def run_3d():
    data, ke0, ke1 = _generate_3d_dataset()
    train, test = data[:-1], data[-1:]

    X, Y = make_channel_pairs(train, n_in=N_IN, n_out=N_OUT)
    Xt, Yt = make_channel_pairs(test, n_in=N_IN, n_out=N_OUT, stride=N_OUT)
    norm = FieldNormalizer(n_fields=3).fit(X)

    cfg = Spatial3DChannelsConfig(n_in=N_IN, n_out=N_OUT, n_fields=3,
                                  modes1=4, modes2=4, modes3=3, width=8, n_layers=2)
    model = build_model(cfg, rng=np.random.default_rng(0))
    trainer = Trainer(model, TrainingConfig(epochs=80, batch_size=4, learning_rate=3e-3,
                                            scheduler_step=30, scheduler_gamma=0.5, seed=0))
    history = trainer.fit(norm.encode(X), norm.encode(Y))

    with no_grad():
        pred = norm.decode(model(Tensor(norm.encode(Xt))).numpy())
    diff = pred - Yt
    model_err = float(np.linalg.norm(diff) / np.linalg.norm(Yt))
    persistence = np.concatenate([Xt[:, -3:]] * N_OUT, axis=1)
    base_err = float(np.linalg.norm(persistence - Yt) / np.linalg.norm(Yt))
    return {
        "ke_decay_ratio": float(ke1.mean() / ke0.mean()),
        "model_err": model_err,
        "persistence_err": base_err,
        "final_train_loss": history.train_loss[-1],
        "parameters": model.num_parameters(),
    }


def test_3d_extension(benchmark):
    res = benchmark.pedantic(run_3d, rounds=1, iterations=1)

    print_table(
        "Extension — 3-D FNO (spatial) + temporal channels on 3-D turbulence",
        ["quantity", "value"],
        [[k, v] for k, v in res.items()],
    )

    # Substrate: 3-D turbulence decays over the sampled window.
    assert res["ke_decay_ratio"] < 1.0
    # The model learns the operator: beats persistence and the zero map.
    assert res["model_err"] < res["persistence_err"]
    assert res["model_err"] < 1.0
    # Training actually converged somewhat.
    assert res["final_train_loss"] < 0.2

    write_results("extension_3d", res)


if __name__ == "__main__":
    from common import bench_entry

    bench_entry(run_3d)
