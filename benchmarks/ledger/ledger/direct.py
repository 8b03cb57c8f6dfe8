"""``direct_hybrid_trust``: the in-process service on the stable hybrid path.

An :class:`~repro.serve.InferenceService` with library defaults (hybrid
mode, ``fd`` solver, report-only trust, deterministic kernels), one
worker, ``BatchPolicy(max_batch=4, max_wait_ms=5)``.  Requests are
``hybrid`` with two cycles, so PDE steps, trust diagnostics, the seeded
ensemble and the batched FNO share the time, with no codec or gateway:
every wire-format or gateway change predicts *no change* here.

Untraced runs time requests sent one at a time and two back-to-back
threads (:func:`~ledger.metrics.measure_serving`); traced runs add the
seeded open loop and its replay with spans around every layer.
"""

from __future__ import annotations

import threading
import time

import numpy as np

import repro.compile.runtime as compile_runtime
import repro.core.hybrid as core_hybrid
import repro.serve.service as serve_service
import repro.trust.policy as trust_policy
from repro.ns.fd_solver import FDNSSolver2D
from repro.serve import BatchPolicy, InferenceService, ModelRegistry

from .host import peak_rss_mb
from .inputs import MODEL_NAME, N_WINDOWS, build_inputs
from .loadgen import percentile, run_open_loop
from .metrics import Result, measure_serving, open_loop_layers, shares, timed_setup
from .spans import Tracer, layer_totals

RATE = 1.5          # open loop, req/s: ~20% utilisation of the single worker
REQUEST = {"mode": "hybrid", "cycles": 2}


def _plan_flops(args, kwargs, result) -> dict:
    plan = compile_runtime.plan_cache().plan_for(args[0], args[1])
    return {"flops": plan.flops if plan is not None else 0}


def _batch_size(args, kwargs, result) -> dict:
    return {"size": len(result)}


def _layers():
    return [
        (serve_service, "run_batch_inference", "serve.batch", _batch_size),
        (serve_service, "run_hybrid_batched", "core.hybrid"),
        (core_hybrid, "apply_channels", "core.fno"),
        (compile_runtime, "forward", "compile.forward", _plan_flops),
        (FDNSSolver2D, "step", "ns.step"),
        (serve_service, "assess_prediction", "trust.assess"),
        (trust_policy, "diagnose_prediction", "trust.diagnose"),
        (trust_policy, "ensemble_uq", "trust.ensemble"),
    ]


def _warm_up(service: InferenceService, windows) -> None:
    """Trace the plans for batch shapes 1 and 2 (and the 3-member ensemble).

    Two requests queued before the worker starts run as one batch of two;
    a third then runs alone.
    """
    errors: list[BaseException] = []

    def call(k: int) -> None:
        try:
            service.predict(MODEL_NAME, windows[k], **REQUEST)
        except BaseException as exc:  # re-raised in the set-up thread below
            errors.append(exc)

    pair = [threading.Thread(target=call, args=(k,)) for k in (0, 1)]
    for thread in pair:
        thread.start()
    deadline = time.monotonic() + 30.0
    while service.queue.depth() < 2 and not errors and time.monotonic() < deadline:
        time.sleep(0.001)
    service.start()
    for thread in pair:
        thread.join()
    if errors:
        raise errors[0]
    service.predict(MODEL_NAME, windows[2], **REQUEST)


def _same(out: dict, ref: dict) -> bool:
    return (np.array_equal(out["velocity"], ref["velocity"])
            and out["source"] == ref["source"] and out["trust"] == ref["trust"])


def run(seed: int, seconds: float, trace: bool, workdir) -> Result:
    checkpoint = workdir / "model.npz"
    inputs = build_inputs(seed)

    def setup():
        compiled_before = compile_runtime.stats()
        inputs.save_checkpoint(checkpoint)
        registry = ModelRegistry()
        registry.register(MODEL_NAME, checkpoint)
        service = InferenceService(
            registry, policy=BatchPolicy(max_batch=4, max_wait_ms=5.0), n_workers=1,
        )
        _warm_up(service, inputs.windows)
        return service, compiled_before

    setup_s, (service, compiled_before), rounds = timed_setup(setup, lambda s: s[0].stop())
    try:
        # Batch-1 references: every timed response must equal its window's.
        refs = [service.predict(MODEL_NAME, w, **REQUEST) for w in inputs.windows]

        def send(i: int):
            out = service.predict(MODEL_NAME, inputs.windows[i % N_WINDOWS], **REQUEST)
            return _same(out, refs[i % N_WINDOWS]), {
                "latency_s": out["latency_s"],
                "fno": out["source"].count("fno"),
                "fallback": out["source"].count("pde-fallback"),
                "trusted": out["trust"]["trusted"],
            }

        records, metrics = measure_serving(send, seconds)
        metrics["setup_s"] = setup_s
        result = Result(0, 0, metrics, {"setup_rounds_s": rounds, "requests": len(records)})
        if trace:
            records += _traced_open_loop(service, send, seed, seconds, compiled_before, result)
        metrics["peak_rss_mb"] = peak_rss_mb()
    finally:
        service.stop()
    result.attempted = len(records)
    result.failed = sum(not r.ok for r in records)
    return result


def _traced_open_loop(service, send, seed, seconds, compiled_before, result: Result):
    """The seeded open loop, then its replay with spans around every layer."""
    tracer = Tracer()
    traced_send = tracer.wrap("client.request", send,
                              lambda args, kwargs, out: {"request": args[0], "ok": out[0]})
    hist_before = {}

    def replay(schedule):
        hist_before.update(service.stats_snapshot()["batch_histogram"])
        with tracer.patched(_layers()):
            return run_open_loop(traced_send, schedule)

    all_records, layer = open_loop_layers(send, replay, RATE, seconds, seed)
    records = all_records[len(all_records) // 2:]
    stats = service.stats_snapshot()
    compiled = compile_runtime.stats()
    totals = layer_totals(tracer.spans)
    flops = sum(s.tags.get("flops", 0) for s in tracer.spans if s.name == "compile.forward")

    def per_call_ms(name: str, key: str = "total") -> float:
        row = totals.get(name)
        return 1e3 * row[key] / row["calls"] if row else 0.0

    hist = {int(k): v - hist_before.get(k, 0) for k, v in stats["batch_histogram"].items()}
    n_batches = sum(hist.values())
    infos = [r.info for r in records if r.info]
    fno = sum(i["fno"] for i in infos)
    fallback = sum(i["fallback"] for i in infos)
    layer.update({
        "serve.service_p50_ms": 1e3 * percentile([i["latency_s"] for i in infos], 50),
        "serve.queue_wait_p50_ms": 1e3 * stats["queue_wait_s"]["p50"],
        "serve.batch_exec_p50_ms": 1e3 * stats["batch_exec_s"]["p50"],
        "serve.batch_size_mean": sum(k * v for k, v in hist.items()) / max(n_batches, 1),
        "compile.traces": compiled["traces"] - compiled_before["traces"],
        "compile.fallbacks": compiled["fallbacks"] - compiled_before["fallbacks"],
        "compile.forward_ms": per_call_ms("compile.forward"),
        "compile.forward_calls": totals.get("compile.forward", {}).get("calls", 0),
        "compile.gflops": flops / max(totals.get("compile.forward", {}).get("total", 0.0), 1e-12) / 1e9,
        "core.hybrid_self_ms": per_call_ms("core.hybrid", "self"),
        "core.fno_ms": per_call_ms("core.fno"),
        "core.fno_calls": totals.get("core.fno", {}).get("calls", 0),
        "core.fallback_ratio": fallback / max(fno + fallback, 1),
        "ns.step_ms": per_call_ms("ns.step"),
        "ns.steps": totals.get("ns.step", {}).get("calls", 0),
        "trust.assess_self_ms": per_call_ms("trust.assess", "self"),
        "trust.diagnose_ms": per_call_ms("trust.diagnose"),
        "trust.ensemble_ms": per_call_ms("trust.ensemble"),
        "trust.trusted_ratio": sum(bool(i["trusted"]) for i in infos) / max(len(infos), 1),
    })
    layer.update({f"{name}.share": value
                  for name, value in shares(totals, "serve.batch").items()})
    result.metrics.update(layer)
    # A response's latency_s is its queue wait plus its batch's time, and
    # the self times of the wrapped layers add up to the batch's time; the
    # rest of the client's median is generator lag and hand-off.
    result.notes.update({
        "accounted_ratio": layer["serve.service_p50_ms"] / layer["client.open_p50_ms"],
        "batches": n_batches,
        "layers": totals,
    })
    result.tracer = tracer
    return all_records
