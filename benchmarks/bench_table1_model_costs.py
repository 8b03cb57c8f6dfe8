"""Table I — parameter counts and training cost of the 12 paper configs.

Reverse-engineering the paper's reported counts shows they follow

    spectral ≈ 2 · L · w² · m1 · (m2/2 + 1)            (2D + channels)
    spectral ≈ 2 · L · w² · m1 · m2 · (m3/2 + 1)       (3D)

to within 0.5% — i.e. the "Modes 32" column allocates ``modes2 = 17``
(the rfft half-spectrum of 32) and counts each complex weight as ONE
parameter (PyTorch ``numel`` on cfloat), with two corner blocks per
spectral layer.  Our implementation stores a complex weight as two real
scalars and keeps all four corner blocks in 3D, so our counts are exactly
**2× (2D)** and **4× (3D)** the paper's for matched (width, layers,
modes) — which this benchmark asserts per row, along with the scaling
orderings and the 3D ≫ 2D cost gap.

Training hours on an A6000 are not reproducible on CPU; we measure one
epoch of matched scaled-down 2D/3D models and assert the cost *ordering*
(paper: 23.4 h for 3D vs 2.4 h for 2D channels at width 40).
"""

import time

import numpy as np

from common import print_table, write_results
from repro.core import (
    ChannelFNOConfig,
    SpaceTimeFNOConfig,
    Trainer,
    TrainingConfig,
    build_model,
    parameter_count,
)

# The 12 rows of Table I (paper order); "modes 32" → (32, 17) under the
# rfft convention, and modes3 = modes1/2 + 1 for the 3D models.  The 3D
# configs are count-only at full scale (time axis of 10 snapshots would
# need padding beyond 2·modes3 to instantiate).
TABLE1 = [
    ("2D FNO + Channels (10)", ChannelFNOConfig(n_in=10, n_out=10, n_fields=2, width=40, n_layers=4, modes1=32, modes2=17)),
    ("2D FNO + Channels (10)", ChannelFNOConfig(n_in=10, n_out=10, n_fields=2, width=8, n_layers=4, modes1=32, modes2=17)),
    ("2D FNO + Channels (5)", ChannelFNOConfig(n_in=10, n_out=5, n_fields=2, width=40, n_layers=4, modes1=32, modes2=17)),
    ("2D FNO + Channels (5)", ChannelFNOConfig(n_in=10, n_out=5, n_fields=2, width=8, n_layers=4, modes1=32, modes2=17)),
    ("2D FNO + Channels (1)", ChannelFNOConfig(n_in=10, n_out=1, n_fields=2, width=40, n_layers=4, modes1=32, modes2=17)),
    ("2D FNO + Channels (1)", ChannelFNOConfig(n_in=10, n_out=1, n_fields=2, width=8, n_layers=4, modes1=32, modes2=17)),
    ("3D FNO", SpaceTimeFNOConfig(n_fields=2, width=40, n_layers=4, modes1=32, modes2=32, modes3=17)),
    ("3D FNO", SpaceTimeFNOConfig(n_fields=2, width=40, n_layers=4, modes1=16, modes2=16, modes3=9)),
    ("3D FNO", SpaceTimeFNOConfig(n_fields=2, width=20, n_layers=4, modes1=24, modes2=24, modes3=13)),
    ("3D FNO", SpaceTimeFNOConfig(n_fields=2, width=8, n_layers=4, modes1=32, modes2=32, modes3=17)),
    ("3D FNO", SpaceTimeFNOConfig(n_fields=2, width=4, n_layers=8, modes1=32, modes2=32, modes3=17)),
    ("3D FNO", SpaceTimeFNOConfig(n_fields=2, width=8, n_layers=8, modes1=24, modes2=24, modes3=13)),
]

# Paper's reported parameter counts, same order.
PAPER_PARAMS = [
    6_995_922, 288_562, 6_994_637, 287_277, 6_993_609, 286_249,
    222_850_505, 29_519_305, 23_974_565, 8_918_313, 4_459_685, 7_673_417,
]

# Paper's training hours (A6000), same order — used for ordering checks.
PAPER_HOURS = [2.41, 1.36, 7.25, 4.07, 11.48, 6.18, 23.38, 10.09, 14.01, 10.06, 11.37, 12.54]


def _epoch_seconds(model, x_shape, y_shape, batch=2):
    rng = np.random.default_rng(0)
    X = rng.standard_normal((batch,) + x_shape)
    Y = rng.standard_normal((batch,) + y_shape)
    trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=batch))
    start = time.perf_counter()
    trainer.fit(X, Y)
    return time.perf_counter() - start


def run_table1():
    counts = [parameter_count(cfg) for _, cfg in TABLE1]

    # Timing at reduced scale (grid 16), matched width/modes across 2D/3D.
    t2 = ChannelFNOConfig(n_in=10, n_out=5, n_fields=2, width=8, n_layers=4, modes1=6, modes2=6)
    t3 = SpaceTimeFNOConfig(n_fields=2, width=8, n_layers=4, modes1=6, modes2=6, modes3=3)
    m2 = build_model(t2, rng=np.random.default_rng(0))
    m3 = build_model(t3, rng=np.random.default_rng(0))
    sec2 = _epoch_seconds(m2, (t2.in_channels, 16, 16), (t2.out_channels, 16, 16))
    sec3 = _epoch_seconds(m3, (2, 16, 16, 10), (2, 16, 16, 10))
    return counts, {"sec_2d": sec2, "sec_3d": sec3}


def test_table1_model_costs(benchmark):
    counts, timing = benchmark.pedantic(run_table1, rounds=1, iterations=1)

    rows = []
    for (name, cfg), ours, paper in zip(TABLE1, counts, PAPER_PARAMS):
        rows.append([name, cfg.width, cfg.n_layers, cfg.modes1, ours, paper, ours / paper])
    print_table(
        "Table I — parameter counts (ours vs paper; expect 2x / 4x, see module docstring)",
        ["model", "width", "layers", "modes", "ours", "paper", "ratio"],
        rows,
    )
    print(f"epoch timing at reduced scale: 2D channels {timing['sec_2d']:.3f}s, "
          f"3D FNO {timing['sec_3d']:.3f}s (ratio {timing['sec_3d'] / timing['sec_2d']:.1f}x; "
          f"paper 23.38h vs 2.41h ≈ 9.7x)")

    ours = np.array(counts, dtype=float)
    paper = np.array(PAPER_PARAMS, dtype=float)
    ratios = ours / paper
    # Shape 1: per-row ratio is the storage-convention constant — 2 for 2D
    # (complex stored as two reals), 4 for 3D (plus 4 vs 2 corner blocks).
    assert np.all((ratios[:6] > 1.85) & (ratios[:6] < 2.05)), ratios[:6]
    assert np.all((ratios[6:] > 3.9) & (ratios[6:] < 4.1)), ratios[6:]
    # Shape 2: identical ordering within each family.
    assert list(np.argsort(ours[:6])) == list(np.argsort(paper[:6]))
    assert list(np.argsort(ours[6:])) == list(np.argsort(paper[6:]))
    # Shape 3: every 3D config dwarfs every 2D config — Table I's headline.
    assert ours[6:].min() > ours[:6].max()
    # Shape 4: width-40 2D models ≈ 25x the width-8 ones (paper ≈ 24x).
    assert 15 < counts[0] / counts[1] < 35
    # Shape 5: 3D FNO costs more wall-clock per epoch than 2D channels at
    # matched width/modes (paper: ~9.7x in hours).
    assert timing["sec_3d"] > 2.0 * timing["sec_2d"]

    write_results("table1_model_costs", {
        "rows": [
            {"model": name, "width": cfg.width, "layers": cfg.n_layers,
             "modes": cfg.modes1, "ours": int(o), "paper": int(p),
             "ratio": float(o / p), "paper_hours": h}
            for (name, cfg), o, p, h in zip(TABLE1, counts, PAPER_PARAMS, PAPER_HOURS)
        ],
        "epoch_seconds_2d": timing["sec_2d"],
        "epoch_seconds_3d": timing["sec_3d"],
    })


if __name__ == "__main__":
    from common import bench_entry

    bench_entry(run_table1)
