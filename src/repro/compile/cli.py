"""``repro compile`` — trace a checkpoint and print its execution plan.

Shows what the inference compiler would run for a given input shape in
the checkpoint's stored dtype (as serving runs it): the op schedule,
which intermediates share arena storage, total buffer bytes, and a FLOP
estimate.  Useful both for verifying that a model compiles (DeepONet-style
models fall back to eager) and for sizing the memory a serving replica
pins per ``(model, batch_shape)``.  With ``--profile`` it also runs the
plan 20 times with per-step timing on and prints time, share,
``est_flops`` and GFLOP/s per op and per module path (:func:`profile_rows`
builds the same rows for any plan, training plans included).
"""

from __future__ import annotations

import json
import sys

import numpy as np

__all__ = ["add_compile_arguments", "run_compile", "profile_rows", "format_profile"]

# Plan executions timed by ``--profile``.
PROFILE_CALLS = 20


def add_compile_arguments(parser) -> None:
    parser.add_argument("checkpoint", help="path to a model .npz saved by repro train")
    parser.add_argument("--batch", type=int, default=1, help="batch size to plan for")
    parser.add_argument("--grid", type=int, default=64,
                        help="spatial resolution to plan for (per axis)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the full plan description as JSON")
    parser.add_argument("--profile", action="store_true",
                        help=f"run the plan {PROFILE_CALLS} times and print time, share, "
                             "est. flops and GFLOP/s per op and per module path")


def profile_rows(plan, run, calls: int) -> dict:
    """Time ``calls`` calls of ``run()`` (which executes ``plan``) step by step.

    Returns ``{"calls", "seconds", "by_op", "by_module"}``; each row list
    holds ``{"name", "steps", "ms", "share", "est_flops", "gflops"}``
    per call, slowest first.  Steps of a training plan's reverse pass are
    named ``<op>.vjp``.
    """
    from ..obs import hooks

    plan.step_seconds[:] = [0.0] * len(plan.steps)
    with hooks.step_timing():
        for _ in range(calls):
            run()
    total = sum(plan.step_seconds)

    def rows(key) -> list[dict]:
        groups: dict[str, list] = {}
        for step, seconds in zip(plan.steps, plan.step_seconds):
            row = groups.setdefault(key(step), [0, 0.0, 0])
            row[0] += 1
            row[1] += seconds
            row[2] += step.flops
        out = [{
            "name": name, "steps": n, "ms": 1e3 * secs / calls,
            "share": secs / total if total else 0.0, "est_flops": flops,
            "gflops": flops * calls / secs / 1e9 if secs and flops else 0.0,
        } for name, (n, secs, flops) in groups.items()]
        return sorted(out, key=lambda row: -row["ms"])

    return {"calls": calls, "seconds": total,
            "by_op": rows(lambda step: step.op),
            "by_module": rows(lambda step: step.module or "(root)")}


def format_profile(profile: dict) -> list[str]:
    """Table lines for :func:`profile_rows` output."""
    lines = [f"profile    : {profile['calls']} calls, "
             f"{1e3 * profile['seconds'] / profile['calls']:.2f} ms per call in steps"]
    for title, key in (("op", "by_op"), ("module", "by_module")):
        lines.append("")
        lines.append(f"  {title:32} {'steps':>5} {'ms':>9} {'share':>7} {'Mflop':>9} {'GFLOP/s':>8}")
        for row in profile[key]:
            mflop = f"{row['est_flops'] / 1e6:.2f}" if row["est_flops"] else "-"
            gflops = f"{row['gflops']:.2f}" if row["gflops"] else "-"
            lines.append(f"  {row['name']:32} {row['steps']:>5} {row['ms']:>9.3f} "
                         f"{100 * row['share']:>6.1f}% {mflop:>9} {gflops:>8}")
    return lines


def _input_shape(config, batch: int, grid: int) -> tuple[int, ...]:
    """The model-facing input shape for a checkpoint config."""
    kind = config.to_dict().get("kind")
    if kind == "channel_fno":
        return (batch, config.in_channels, grid, grid)
    if kind == "spacetime_fno":
        return (batch, config.n_fields, grid, grid, config.n_in)
    if kind == "spatial3d_channels":
        return (batch, config.in_channels, grid, grid, grid)
    raise ValueError(f"don't know the input shape for model kind {kind!r}")


def _fmt_bytes(n: int) -> str:
    if n >= 1 << 20:
        return f"{n / (1 << 20):.1f} MiB"
    if n >= 1 << 10:
        return f"{n / (1 << 10):.1f} KiB"
    return f"{n} B"


def run_compile(args) -> int:
    from ..core import load_model
    from . import UnsupportedOpError, compile_model

    try:
        model, config, _normalizer = load_model(args.checkpoint)
        shape = _input_shape(config, args.batch, args.grid)
    except ValueError as exc:  # a CheckpointError, or a kind with no input shape
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        plan = compile_model(model, shape, dtype=model.dtype)
    except UnsupportedOpError as exc:
        print(f"{args.checkpoint}: not compilable ({exc}); "
              "this model will always be served eagerly", file=sys.stderr)
        return 1

    desc = plan.describe()
    profile = None
    if args.profile:
        example = np.random.default_rng(1).standard_normal(shape).astype(model.dtype)
        profile = profile_rows(plan, lambda: plan.execute(example), PROFILE_CALLS)
    if args.as_json:
        if profile is not None:
            desc["profile"] = profile
        json.dump(desc, sys.stdout, indent=2)
        print()
        return 0

    print(f"plan       : {desc['model']}  "
          f"input {tuple(desc['input_shape'])} {desc['input_dtype']}")
    kinds = [s["kind"] for s in desc["steps"]]
    print(f"steps      : {desc['n_steps']} "
          f"({kinds.count('spectral')} spectral, {kinds.count('view')} views)")
    print(f"arena      : {_fmt_bytes(desc['arena_bytes'])} in "
          f"{desc['n_buffers']} buffers ({desc['buffers_reused']} slots reused)")
    print(f"est. flops : {desc['est_flops']:,} per call")
    print()
    print(f"  {'#':>3} {'op':24} {'output':>22} {'kind':10} {'arena':>10} {'Mflop':>8}")
    for i, step in enumerate(desc["steps"]):
        out = f"{tuple(step['out_shape'])}"
        arena = _fmt_bytes(step["arena_bytes"]) if step["arena_bytes"] else "-"
        mflop = f"{step['est_flops'] / 1e6:.2f}" if step["est_flops"] else "-"
        print(f"  {i:>3} {step['op']:24} {out:>22} {step['kind']:10} "
              f"{arena:>10} {mflop:>8}")
    if profile is not None:
        print()
        print("\n".join(format_profile(profile)))
    return 0
