"""``repro compile`` — trace a checkpoint and print its execution plan.

Shows what the inference compiler would run for a given input shape:
the op schedule, which intermediates share arena storage, total buffer
bytes, and a FLOP estimate.  Useful both for verifying that a model
compiles (DeepONet-style models fall back to eager) and for sizing the
memory a serving replica pins per ``(model, batch_shape)``.
"""

from __future__ import annotations

import json
import sys

import numpy as np

__all__ = ["add_compile_arguments", "run_compile"]


def add_compile_arguments(parser) -> None:
    parser.add_argument("checkpoint", help="path to a model .npz saved by repro train")
    parser.add_argument("--batch", type=int, default=1, help="batch size to plan for")
    parser.add_argument("--grid", type=int, default=64,
                        help="spatial resolution to plan for (per axis)")
    parser.add_argument("--dtype", choices=["float32", "float64"], default="float64",
                        help="inference dtype (serving runs float64 plans; training is float32)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the full plan description as JSON")


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
    from ..core import CheckpointError, load_model
    from . import UnsupportedOpError, compile_model

    dtype = np.dtype(args.dtype)
    try:
        model, config, _normalizer = load_model(args.checkpoint, dtype=dtype)
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        shape = _input_shape(config, args.batch, args.grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        plan = compile_model(model, shape, dtype=dtype)
    except UnsupportedOpError as exc:
        print(f"{args.checkpoint}: not compilable ({exc}); "
              "this model will always be served eagerly", file=sys.stderr)
        return 1

    desc = plan.describe()
    if args.as_json:
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
    return 0
