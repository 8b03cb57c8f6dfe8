"""Command-line interface.

The subcommands cover the paper's workflow end to end, plus deployment
and observability::

    python -m repro.cli generate --grid 32 --samples 8 --out data.npz
    python -m repro.cli train    --data data.npz --epochs 30 --out model.npz
    python -m repro.cli rollout  --data data.npz --model model.npz --mode hybrid
    python -m repro.cli analyze  --data data.npz
    python -m repro.cli check    src --format json
    python -m repro.cli inspect  model.npz
    python -m repro.cli serve    --model tiny=model.npz --port 8764
    python -m repro.cli fleet    up --model tiny=model.npz --replicas 3
    python -m repro.cli trace    run.trace.jsonl
    python -m repro.cli profile  benchmarks/bench_fig2_separation.py
    python -m repro.cli chaos    --seed-matrix 3
    python -m repro.cli trust    --model model.npz --data data.npz

Every option has a CPU-friendly default; the paper-scale settings are
plain flag values away (``--grid 256 --reynolds 7500 --samples 5000``).
Setting ``REPRO_OBS=trace.jsonl`` (and optionally ``REPRO_OBS_PROFILE=1``)
turns on span tracing for any subcommand; ``REPRO_FAULTS`` (inline JSON
or a path to a fault-plan file) arms deterministic fault injection.
A closed stdout reader (``repro inspect m.npz | head -1``) exits 1, no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

__all__ = ["main", "build_parser", "EXIT_BROKEN_PIPE"]

EXIT_BROKEN_PIPE = 1  # stdout's reader went away (the Python docs' SIGPIPE recipe)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FNO + 2-D turbulence reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a turbulence dataset shard")
    g.add_argument("--grid", type=int, default=32)
    g.add_argument("--reynolds", type=float, default=800.0)
    g.add_argument("--samples", type=int, default=8)
    g.add_argument("--warmup", type=float, default=0.3)
    g.add_argument("--duration", type=float, default=0.6)
    g.add_argument("--interval", type=float, default=0.02)
    g.add_argument("--solver", choices=["lbm", "spectral", "fd"], default="spectral")
    g.add_argument("--ic", choices=["uniform", "band"], default="band")
    g.add_argument("--forcing", choices=["none", "kolmogorov", "ring"], default="none")
    g.add_argument("--workers", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", default="dataset.npz")

    t = sub.add_parser("train", help="train a temporal-channel FNO on a shard")
    t.add_argument("--data", required=True)
    t.add_argument("--n-in", type=int, default=5)
    t.add_argument("--n-out", type=int, default=5)
    t.add_argument("--modes", type=int, default=8)
    t.add_argument("--width", type=int, default=16)
    t.add_argument("--layers", type=int, default=3)
    t.add_argument("--epochs", type=int, default=30)
    t.add_argument("--batch-size", type=int, default=8)
    t.add_argument("--lr", type=float, default=3e-3)
    t.add_argument("--scheduler-step", type=int, default=10)
    t.add_argument("--scheduler-gamma", type=float, default=0.5)
    t.add_argument("--loss", choices=["l2", "mse", "h1", "divergence"], default="l2")
    t.add_argument("--test-fraction", type=float, default=0.25)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", default="model.npz")

    r = sub.add_parser("rollout", help="roll a trained model out (pure or hybrid)")
    r.add_argument("--data", required=True, help="shard providing the initial window")
    r.add_argument("--model", required=True)
    r.add_argument("--mode", choices=["fno", "hybrid", "pde"], default="hybrid")
    r.add_argument("--cycles", type=int, default=3, help="hybrid cycles (or window count)")
    r.add_argument("--sample", type=int, default=0, help="trajectory index for the window")
    r.add_argument("--reynolds", type=float, default=None,
                   help="PDE viscosity via Re (default: shard metadata or 800)")

    a = sub.add_parser("analyze", help="print dataset statistics")
    a.add_argument("--data", required=True,
                   help="dataset .npz: print statistics/Lyapunov estimate")
    a.add_argument("--lyapunov", action="store_true", help="also estimate the Lyapunov time")

    i = sub.add_parser("inspect", help="print a checkpoint's config/version/normalizer")
    i.add_argument("checkpoint", help="path to a model .npz saved by repro train")

    s = sub.add_parser("serve", help="serve checkpoints over JSON-HTTP with micro-batching")
    s.add_argument("--model", action="append", default=[], metavar="NAME=PATH",
                   help="register a checkpoint under NAME (or give a bare PATH; repeatable)")
    s.add_argument("--host", default="127.0.0.1")
    s.add_argument("--port", type=int, default=8764, help="0 picks a free port")
    s.add_argument("--max-batch", type=int, default=8,
                   help="most requests coalesced into one forward pass")
    s.add_argument("--max-wait-ms", type=float, default=5.0,
                   help="batching window: extra latency the first request of a batch tolerates")
    s.add_argument("--queue-depth", type=int, default=64,
                   help="bounded queue size; beyond it /predict answers 503 + Retry-After")
    s.add_argument("--serve-workers", type=int, default=2, help="worker threads")
    s.add_argument("--capacity", type=int, default=4, help="models kept loaded (LRU)")
    s.add_argument("--require-manifest", action="store_true",
                   help="refuse models without a verifiable integrity manifest")
    s.add_argument("--default-mode", choices=["hybrid", "fno"], default="hybrid",
                   help="rollout mode when a request does not specify one")
    s.add_argument("--solver", choices=["fd", "spectral"], default="fd",
                   help="PDE solver backing hybrid-mode requests")
    s.add_argument("--trust", nargs="?", const="default", metavar="POLICY_JSON",
                   help="attach per-request physics diagnostics, ensemble UQ, and a "
                        "trust verdict to every /predict response; pass a "
                        "`repro trust` calibration JSON for tuned thresholds, or "
                        "no value for the report-only defaults")
    s.add_argument("--verbose", action="store_true", help="log every HTTP request")
    s.add_argument("--replica-id", default="", metavar="ID",
                   help="fleet replica identity reported in /healthz")
    s.add_argument("--announce", default=None, metavar="PATH",
                   help="atomically write {replica_id, host, port, pid} JSON "
                        "after binding (fleet coordinators read the port back)")
    s.add_argument("--heartbeat", default=None, metavar="PATH",
                   help="emit supervisor heartbeats (atomic JSON) on PATH")
    s.add_argument("--drain-grace", type=float, default=10.0, metavar="S",
                   help="seconds SIGTERM lets in-flight requests finish "
                        "before the replica exits")

    co = sub.add_parser(
        "compile", help="trace a checkpoint and print its inference plan"
    )
    from repro.compile.cli import add_compile_arguments

    add_compile_arguments(co)

    c = sub.add_parser("check", help="run the repro static analyzer")
    from repro.checks.cli import add_check_arguments

    add_check_arguments(c)

    ch = sub.add_parser("chaos", help="run the fault-injection chaos scenario matrix")
    from repro.faults.cli import add_chaos_arguments

    add_chaos_arguments(ch)

    tu = sub.add_parser(
        "trust", help="calibrate trust-policy thresholds against a labelled dataset"
    )
    from repro.trust.cli import add_trust_arguments

    add_trust_arguments(tu)

    fl = sub.add_parser(
        "fleet", help="supervised multi-replica serving behind a health-routing gateway"
    )
    from repro.fleet.cli import add_fleet_arguments

    add_fleet_arguments(fl)

    from repro.obs.cli import add_profile_arguments, add_trace_arguments

    tr = sub.add_parser("trace", help="render the span tree of a JSONL trace")
    add_trace_arguments(tr)

    p = sub.add_parser("profile", help="run a script under obs instrumentation")
    add_profile_arguments(p)
    return parser


# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    from repro.data import DataGenConfig, generate_dataset, save_samples

    config = DataGenConfig(
        n=args.grid, reynolds=args.reynolds, n_samples=args.samples,
        warmup=args.warmup, duration=args.duration, sample_interval=args.interval,
        solver=args.solver, ic=args.ic, seed=args.seed, forcing=args.forcing,
    )
    samples = generate_dataset(config, n_workers=args.workers)
    save_samples(args.out, samples, metadata={
        "grid": args.grid, "reynolds": args.reynolds, "solver": args.solver,
        "interval_tc": args.interval, "forcing": args.forcing,
    })
    print(f"wrote {len(samples)} trajectories ({config.n_snapshots} snapshots each) to {args.out}")
    return 0


def _cmd_train(args) -> int:
    from repro.analysis import per_snapshot_relative_l2
    from repro.core import ChannelFNOConfig, Trainer, TrainingConfig, build_model, save_model
    from repro.data import (
        FieldNormalizer,
        load_samples,
        make_channel_pairs,
        stack_fields,
        train_test_split_samples,
    )
    from repro.tensor import Tensor, no_grad

    samples, _ = load_samples(args.data)
    n_test = max(1, int(round(args.test_fraction * len(samples))))
    if n_test >= len(samples):
        print("error: dataset too small for the requested test fraction", file=sys.stderr)
        return 2
    train_s, test_s = train_test_split_samples(samples, n_test=n_test,
                                               rng=np.random.default_rng(args.seed))
    X, Y = make_channel_pairs(stack_fields(train_s, "velocity"), args.n_in, args.n_out)
    Xt, Yt = make_channel_pairs(stack_fields(test_s, "velocity"), args.n_in, args.n_out)
    normalizer = FieldNormalizer(n_fields=2).fit(X)

    model_config = ChannelFNOConfig(
        n_in=args.n_in, n_out=args.n_out, n_fields=2,
        modes1=args.modes, modes2=args.modes, width=args.width, n_layers=args.layers,
    )
    model = build_model(model_config, rng=np.random.default_rng(args.seed))
    print(f"training FNO ({model.num_parameters():,} parameters) on {X.shape[0]} pairs ...")
    trainer = Trainer(model, TrainingConfig(
        epochs=args.epochs, batch_size=args.batch_size, learning_rate=args.lr,
        scheduler_step=args.scheduler_step, scheduler_gamma=args.scheduler_gamma,
        loss=args.loss, seed=args.seed,
    ))
    trainer.fit(normalizer.encode(X), normalizer.encode(Y),
                normalizer.encode(Xt), normalizer.encode(Yt),
                log_every=max(args.epochs // 6, 1))

    with no_grad():
        pred = normalizer.decode(model(Tensor(normalizer.encode(Xt))).numpy())
    errs = per_snapshot_relative_l2(pred, Yt, n_fields=2)
    print("test per-snapshot rel. L2:", " ".join(f"{e:.4f}" for e in errs))
    save_model(args.out, model, model_config, normalizer)
    print(f"model saved to {args.out}")
    return 0


def _cmd_rollout(args) -> int:
    from repro.core import (
        HybridConfig,
        HybridFNOPDE,
        load_model,
        run_pure_fno,
        run_pure_pde,
    )
    from repro.data import load_samples
    from repro.ns import FDNSSolver2D

    samples, meta = load_samples(args.data)
    model, config, normalizer = load_model(args.model)
    sample = samples[args.sample]
    window = sample.velocity[: config.n_in]
    dt = float(sample.times[1] - sample.times[0])
    reynolds = args.reynolds or float(meta.get("reynolds", 800.0))
    n = sample.grid_size
    nu = 2 * np.pi / reynolds

    hycfg = HybridConfig(n_in=config.n_in, n_out=config.n_out, n_fields=2,
                         sample_interval=dt, n_cycles=args.cycles)
    if args.mode == "hybrid":
        record = HybridFNOPDE(model, FDNSSolver2D(n, nu), hycfg, normalizer=normalizer).run(window)
    elif args.mode == "fno":
        record = run_pure_fno(model, window, n_snapshots=args.cycles * (config.n_in + config.n_out),
                              n_fields=2, normalizer=normalizer, sample_interval=dt)
    else:
        record = run_pure_pde(FDNSSolver2D(n, nu), window,
                              n_snapshots=args.cycles * (config.n_in + config.n_out),
                              sample_interval=dt)
    d = record.diagnostics()
    print(f"{'t/t_c':>7} {'KE':>10} {'enstrophy':>11} {'rms div':>10}  source")
    for i in range(0, record.n_snapshots, max(1, record.n_snapshots // 15)):
        print(f"{d['times'][i]:7.3f} {d['kinetic_energy'][i]:10.5f} "
              f"{d['enstrophy'][i]:11.5f} {d['rms_divergence'][i]:10.2e}  {record.source[i]}")
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis import correlation_coefficient, l2_separation, std_evolution
    from repro.data import load_samples

    samples, meta = load_samples(args.data)
    print(f"{len(samples)} trajectories, grid {samples[0].grid_size}^2, "
          f"{samples[0].n_snapshots} snapshots, metadata {meta}")
    print(f"{'id':>4} {'Re(0)':>8} {'std ω(0)':>9} {'std ω(T)':>9} {'sep(T)':>8} {'corr(T)':>8}")
    for s in samples:
        stds = std_evolution(s.vorticity)
        sep = l2_separation(s.vorticity)
        corr = correlation_coefficient(s.vorticity)
        print(f"{s.sample_id:>4} {s.reynolds:8.0f} {stds[0]:9.4f} {stds[-1]:9.4f} "
              f"{sep[-1]:8.4f} {corr[-1]:8.4f}")

    if args.lyapunov:
        from repro.analysis import estimate_lyapunov, perturb_velocity
        from repro.ns import SpectralNSSolver2D

        s = samples[0]
        n = s.grid_size
        reynolds = float(meta.get("reynolds", 800.0))
        nu = 2 * np.pi / reynolds
        a, b = SpectralNSSolver2D(n, nu), SpectralNSSolver2D(n, nu)
        a.set_velocity(s.velocity[0])
        b.set_velocity(perturb_velocity(s.velocity[0], 1e-2, rng=np.random.default_rng(0)))
        result = estimate_lyapunov(a, b, duration=3.0 * 2 * np.pi, n_snapshots=30)
        t_c = 2 * np.pi
        exps = result.exponents * t_c
        print(f"\nLyapunov: Λ(u1)={exps[0]:.3f}/t_c Λ(u2)={exps[1]:.3f}/t_c "
              f"T_L={1.0 / exps.max():.3f} t_c")
    return 0


def _cmd_inspect(args) -> int:
    from repro.core import CheckpointError, inspect_checkpoint

    try:
        info = inspect_checkpoint(args.checkpoint)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"checkpoint : {info['path']}")
    print(f"format     : version {info['version']}")
    print(f"kind       : {info['kind']}")
    print(f"dtype      : {info['dtype']}")
    print(f"parameters : {info['n_parameters']:,} in {info['n_arrays']} arrays "
          f"({info['file_bytes'] / 1024:.1f} KiB on disk)")
    config = {k: v for k, v in info["config"].items() if k != "kind"}
    print("config     : " + ", ".join(f"{k}={v}" for k, v in sorted(config.items())))
    if info["normalizer"] is None:
        print("normalizer : none")
    else:
        print("normalizer : " + ", ".join(f"{k}={v}" for k, v in sorted(info["normalizer"].items())))
    return 0


def _cmd_serve(args) -> int:
    from repro.core import CheckpointError
    from repro.serve import BatchPolicy, InferenceService, ModelRegistry, serve_forever

    registry = ModelRegistry(capacity=args.capacity,
                             require_manifest=args.require_manifest)
    for spec in args.model:
        name, _, path = spec.rpartition("=")
        try:
            registry.register(name or path, path)
        except CheckpointError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if not args.model:
        print("warning: no --model registered; requests must pass checkpoint paths",
              file=sys.stderr)
    trust = None
    if args.trust is not None:
        from repro.trust import TrustPolicy

        if args.trust == "default":
            trust = TrustPolicy()
        else:
            import json

            try:
                with open(args.trust, encoding="utf-8") as fh:
                    payload = json.load(fh)
                trust = TrustPolicy.from_dict(payload.get("policy", payload))
            except (OSError, ValueError) as exc:
                print(f"error: {args.trust}: {exc}", file=sys.stderr)
                return 2
    service = InferenceService(
        registry,
        policy=BatchPolicy(max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
                           max_queue=args.queue_depth),
        n_workers=args.serve_workers,
        default_mode=args.default_mode,
        solver_kind=args.solver,
        trust=trust,
        replica_id=args.replica_id,
    )
    serve_forever(service, host=args.host, port=args.port, verbose=args.verbose,
                  announce=args.announce, heartbeat=args.heartbeat,
                  drain_grace=args.drain_grace)
    return 0


def _cmd_compile(args) -> int:
    from repro.compile.cli import run_compile

    return run_compile(args)


def _cmd_check(args) -> int:
    from repro.checks.cli import run_check

    return run_check(args)


def _cmd_chaos(args) -> int:
    from repro.faults.cli import run_chaos

    return run_chaos(args)


def _cmd_trust(args) -> int:
    from repro.trust.cli import run_trust

    return run_trust(args)


def _cmd_fleet(args) -> int:
    from repro.fleet.cli import run_fleet

    return run_fleet(args)


def _cmd_trace(args) -> int:
    from repro.obs.cli import run_trace

    return run_trace(args)


def _cmd_profile(args) -> int:
    from repro.obs.cli import run_profile

    return run_profile(args)


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "rollout": _cmd_rollout,
    "analyze": _cmd_analyze,
    "inspect": _cmd_inspect,
    "serve": _cmd_serve,
    "compile": _cmd_compile,
    "check": _cmd_check,
    "chaos": _cmd_chaos,
    "trust": _cmd_trust,
    "fleet": _cmd_fleet,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
}


def main(argv: list[str] | None = None) -> int:
    from repro import faults, obs

    obs.configure_from_env()
    faults.configure_from_env()
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
    except BrokenPipeError:  # devnull keeps the flush at exit from raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
