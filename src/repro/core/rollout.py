"""Iterative roll-out of trained FNO models (paper Sec. VI-A/B).

The temporal-channel model maps ``n_in`` snapshots to ``n_out`` future
snapshots; longer horizons are reached by feeding predictions back as
inputs.  With fewer output channels more iterations are needed — the
source of the "compound error" the paper observes for the
1-output-channel model in Fig. 5.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..compile import runtime as _compile
from ..faults import injection as _faults
from ..faults.policy import DivergenceGuard, RolloutDiverged
from ..nn import Module
from ..tensor import Tensor, no_grad

__all__ = ["apply_channels", "rollout_channels", "rollout_spacetime"]


def apply_channels(model: Module, x: np.ndarray, normalizer=None) -> np.ndarray:
    """One batched FNO application in physical units.

    Encodes ``x`` of shape ``(B, C_in, n, n)`` with ``normalizer`` (when
    given), runs the model under ``no_grad`` and decodes the prediction
    back.  This is the single forward pass shared by the roll-out
    drivers, the hybrid scheme and the serving micro-batcher.

    The forward goes through the inference compiler when possible: a
    cached :class:`repro.compile.CompiledPlan` (bit-for-bit equal to the
    eager no-grad forward) skips autograd dispatch and per-op
    allocations.  Unsupported models or disabled compilation
    (``REPRO_COMPILE=0``) fall back to the eager path below.  The encoded
    input is cast to the model's ``dtype`` (a no-op for float64 models),
    so a float32 model runs in float32 rather than a mixed plan.
    """
    if normalizer is not None:
        x = normalizer.encode(x)
    model.eval()
    x = np.asarray(x, dtype=getattr(model, "dtype", None))
    pred = _compile.forward(model, x)
    if pred is None:
        with no_grad():
            pred = model(Tensor(x)).numpy()
    if normalizer is not None:
        pred = normalizer.decode(pred)
    return pred


def rollout_channels(
    model: Module,
    window: np.ndarray,
    n_snapshots: int,
    n_fields: int = 2,
    normalizer=None,
    guard: DivergenceGuard | None = None,
) -> np.ndarray:
    """Roll the temporal-channel FNO forward.

    Parameters
    ----------
    model:
        Trained rank-2 :class:`repro.nn.FNO` with ``in_channels = n_in·n_fields``
        and ``out_channels = n_out·n_fields``.
    window:
        Initial input of shape ``(B, n_in·n_fields, n, n)`` in *physical*
        units (the normalizer, if given, is applied around the model).
    n_snapshots:
        Number of future snapshots to produce (the model is applied
        ``ceil(n_snapshots / n_out)`` times and the result truncated).
    n_fields:
        Field components per snapshot (2 for velocity).
    normalizer:
        Optional :class:`repro.data.UnitGaussianNormalizer` fitted on
        model inputs; predictions are decoded back to physical units
        before being re-encoded as the next input window.
    guard:
        Optional :class:`repro.faults.DivergenceGuard`; when set, every
        prediction is checked for NaNs and energy blow-up (against the
        initial window's mean-square) and a failure raises a typed
        :class:`repro.faults.RolloutDiverged` instead of silently
        feeding garbage back into the model.

    Returns
    -------
    Predictions of shape ``(B, n_snapshots·n_fields, n, n)``.
    """
    if window.ndim != 4:
        raise ValueError("window must be (B, C, n, n)")
    n_in_ch = model.in_channels
    n_out_ch = model.out_channels
    if window.shape[1] != n_in_ch:
        raise ValueError(f"window has {window.shape[1]} channels, model expects {n_in_ch}")
    if n_in_ch % n_fields or n_out_ch % n_fields:
        raise ValueError("channel counts must be multiples of n_fields")
    n_out = n_out_ch // n_fields

    history = window.copy()
    baseline_ms = float(np.mean(np.square(window))) if guard is not None else None
    produced: list[np.ndarray] = []
    total = 0
    step = 0
    while total < n_snapshots:
        with obs.span("rollout.window", produced=total, batch=window.shape[0]):
            pred = apply_channels(model, history[:, -n_in_ch:], normalizer)
        step += 1
        if _faults.ACTIVE:
            pred = _faults.fire_value("rollout.step", pred, step=step)
        if guard is not None:
            reason = guard.diagnose(pred, baseline_ms)
            if reason is not None:
                raise RolloutDiverged(step, reason)
        produced.append(pred)
        history = np.concatenate([history, pred], axis=1)
        total += n_out
    out = np.concatenate(produced, axis=1)
    return out[:, : n_snapshots * n_fields]


def rollout_spacetime(
    model: Module,
    block: np.ndarray,
    n_windows: int,
    normalizer=None,
    guard: DivergenceGuard | None = None,
) -> np.ndarray:
    """Roll the 3-D FNO forward by whole space–time windows.

    ``block`` has shape ``(B, C, n, n, n_in)``; each application produces
    the next ``n_out`` snapshots along the last axis.  Returns
    ``(B, C, n, n, n_windows·n_out)``.  ``guard`` behaves as in
    :func:`rollout_channels`.
    """
    if block.ndim != 5:
        raise ValueError("block must be (B, C, n, n, T)")
    history = block.copy()
    baseline_ms = float(np.mean(np.square(block))) if guard is not None else None
    outputs: list[np.ndarray] = []
    n_in = block.shape[-1]
    for i in range(n_windows):
        with obs.span("rollout.window", produced=i, batch=block.shape[0]):
            pred = apply_channels(model, history[..., -n_in:], normalizer)
        if _faults.ACTIVE:
            pred = _faults.fire_value("rollout.step", pred, step=i + 1)
        if guard is not None:
            reason = guard.diagnose(pred, baseline_ms)
            if reason is not None:
                raise RolloutDiverged(i + 1, reason)
        outputs.append(pred)
        history = np.concatenate([history, pred], axis=-1)
    return np.concatenate(outputs, axis=-1)
