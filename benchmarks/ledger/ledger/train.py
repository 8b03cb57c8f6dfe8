"""``train``: ``Trainer.fit`` epochs on 64 pairs, batch 8, Adam.

Runs the same spectral layer as serving in a different way — eager
autograd forward *and* backward at batch 8, plus the optimiser — and
touches no serving code.  One operation is one optimiser step; epochs
run until the measured phase is spent.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import replace

import repro.nn.spectral as nn_spectral
from repro.core.config import TrainingConfig
from repro.core.training import Trainer
from repro.data.loader import DataLoader
from repro.nn.fno import FNO2d
from repro.optim import Adam
from repro.tensor import Tensor

from .host import peak_rss_mb
from .inputs import N_PAIRS, build_inputs
from .loadgen import percentile
from .metrics import Result, timed_setup
from .spans import Tracer, layer_totals

BATCH = 8
STEPS_PER_EPOCH = math.ceil(N_PAIRS / BATCH)
WARMUP_STEPS = 2


def _layers():
    return [
        (Trainer, "train_epoch", "train.epoch"),
        (FNO2d, "forward", "nn.forward"),
        (nn_spectral, "spectral_conv2d", "nn.spectral_conv"),
        (Tensor, "backward", "tensor.backward"),
        (Adam, "step", "optim.step"),
    ]


def _epochs(trainer: Trainer, x, y, budget: float) -> list[tuple[float, float]]:
    """Whole epochs through ``Trainer.fit`` until ``budget`` seconds are spent.

    Returns ``(seconds, mean loss)`` per epoch.  Another epoch starts only
    if the median so far still fits in the budget.
    """
    out: list[tuple[float, float]] = []
    start = time.perf_counter()
    while True:
        trainer.config = replace(trainer.config, epochs=trainer.epochs_completed + 1)
        history = trainer.fit(x, y)
        out.append((history.epoch_seconds[-1], history.train_loss[-1]))
        typical = statistics.median(s for s, _ in out)
        if time.perf_counter() - start + typical > budget:
            return out


def _step_ms(epochs) -> list[float]:
    return [1e3 * seconds / STEPS_PER_EPOCH for seconds, _ in epochs]


def run(seed: int, seconds: float, trace: bool, workdir) -> Result:
    inputs = build_inputs(seed)

    def setup():
        x = inputs.normalizer.encode(inputs.x)
        y = inputs.normalizer.encode(inputs.y)
        config = TrainingConfig(epochs=0, batch_size=BATCH, seed=seed)
        trainer = Trainer(inputs.new_model(), config)
        warm = WARMUP_STEPS * BATCH
        trainer.train_epoch(DataLoader(x[:warm], y[:warm], batch_size=BATCH, shuffle=False))
        return trainer, x, y

    setup_s, (trainer, x, y), rounds = timed_setup(setup, lambda state: None)
    epochs = _epochs(trainer, x, y, seconds)
    step_ms = _step_ms(epochs)
    metrics = {
        "setup_s": setup_s,
        "p50_ms": statistics.median(step_ms),
        "throughput_per_s": N_PAIRS * len(epochs) / sum(s for s, _ in epochs),
    }
    result = Result(0, 0, metrics, {"setup_rounds_s": rounds, "epochs": len(epochs)})
    if trace:
        tracer = Tracer()
        with tracer.patched(_layers()):
            traced = _epochs(trainer, x, y, seconds)
        epochs += traced
        _layer_metrics(tracer, traced, result)
    metrics["peak_rss_mb"] = peak_rss_mb()
    result.attempted = STEPS_PER_EPOCH * len(epochs)
    result.failed = STEPS_PER_EPOCH * sum(not math.isfinite(loss) for _, loss in epochs)
    return result


def _layer_metrics(tracer: Tracer, epochs, result: Result) -> None:
    totals = layer_totals(tracer.spans)
    zero = {"calls": 0, "total": 0.0, "self": 0.0}

    def per_call_ms(name: str) -> float:
        row = totals.get(name, zero)
        return 1e3 * row["total"] / row["calls"] if row["calls"] else 0.0

    steps = totals.get("optim.step", zero)["calls"]
    timed = sum(totals.get(n, zero)["total"]
                for n in ("nn.forward", "tensor.backward", "optim.step"))
    epoch_total = totals.get("train.epoch", zero)["total"]
    step_ms = _step_ms(epochs)
    traced_p50 = statistics.median(step_ms)
    result.metrics.update({
        "client.p90_ms": percentile(step_ms, 90),
        "trace.overhead": traced_p50 / result.metrics["p50_ms"] - 1.0,
        "train.epoch_s": statistics.median(
            s.duration for s in tracer.spans if s.name == "train.epoch"),
        "train.steps": steps,
        "nn.forward_ms": per_call_ms("nn.forward"),
        "nn.spectral_conv_ms": per_call_ms("nn.spectral_conv"),
        "tensor.backward_ms": per_call_ms("tensor.backward"),
        "optim.step_ms": per_call_ms("optim.step"),
        "data.batch_ms": 1e3 * (epoch_total - timed) / steps if steps else 0.0,
    })
    result.notes.update({"traced_p50_ms": traced_p50, "traced_epochs": len(epochs),
                         "layers": totals})
    result.tracer = tracer
