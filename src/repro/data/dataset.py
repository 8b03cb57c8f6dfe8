"""Supervised dataset construction from turbulence trajectories.

Two pairings, matching the paper's two FNO methodologies:

* :func:`make_channel_pairs` — for the 2-D FNO with temporal channels:
  inputs are ``n_in`` consecutive snapshots stacked along the channel
  axis, targets the next ``n_out`` snapshots.  With fewer output
  channels, more windows fit in the same trajectory — this implements
  the paper's "equal volume of data" protocol (Sec. VI-A), where the
  channels-1 model sees 10× more training pairs than the channels-10
  model from the same trajectories.
* :func:`make_spacetime_pairs` — for the 3-D FNO: inputs/targets are
  space–time blocks ``(C, n, n, n_in)`` / ``(C, n, n, n_out)``.

Fields can be velocity (2 channels/snapshot, the paper's training
choice), vorticity (1 channel/snapshot), or both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generation import TrajectorySample

__all__ = ["stack_fields", "make_channel_pairs", "make_spacetime_pairs", "train_test_split_samples"]


def stack_fields(samples: list[TrajectorySample], fields: str = "velocity") -> np.ndarray:
    """Stack trajectories into a ``(S, T, C, n, n)`` array.

    ``fields``: ``"velocity"`` (C = 2), ``"vorticity"`` (C = 1) or
    ``"both"`` (C = 3, ordered ``u_x, u_y, ω``).
    """
    if not samples:
        raise ValueError("no samples given")
    pieces = []
    for s in samples:
        if fields == "velocity":
            pieces.append(s.velocity)
        elif fields == "vorticity":
            pieces.append(s.vorticity[:, None])
        elif fields == "both":
            pieces.append(np.concatenate([s.velocity, s.vorticity[:, None]], axis=1))
        else:
            raise ValueError(f"unknown fields spec {fields!r}")
    return np.stack(pieces)


def make_channel_pairs(
    data: np.ndarray,
    n_in: int = 10,
    n_out: int = 5,
    stride: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Windowed (input, target) pairs for the temporal-channel FNO.

    Parameters
    ----------
    data:
        ``(S, T, C, n, n)`` trajectory array.
    n_in, n_out:
        Snapshots per input/target window.
    stride:
        Window start spacing along the trajectory.  Default ``n_out`` —
        consecutive windows overlap in their inputs but tile the targets,
        which is what keeps the *data volume* (distinct target snapshots)
        equal across different ``n_out`` choices.

    Returns
    -------
    ``X`` of shape ``(N, n_in*C, *spatial)`` and ``Y`` of shape
    ``(N, n_out*C, *spatial)``, both copied into contiguous arrays.
    The spatial part may have any rank (2-D planes, 3-D cubes, ...).
    """
    if data.ndim < 5:
        raise ValueError("expected (S, T, C, *spatial) data with at least 2 spatial axes")
    S, T, C = data.shape[:3]
    spatial = data.shape[3:]
    if n_in < 1 or n_out < 1:
        raise ValueError("n_in and n_out must be >= 1")
    if stride is None:
        stride = n_out
    if stride < 1:
        raise ValueError("stride must be >= 1")
    window = n_in + n_out
    if window > T:
        raise ValueError(f"window {window} exceeds trajectory length {T}")
    starts = range(0, T - window + 1, stride)
    xs, ys = [], []
    for s in range(S):
        for t0 in starts:
            xs.append(data[s, t0 : t0 + n_in].reshape((n_in * C,) + spatial))
            ys.append(data[s, t0 + n_in : t0 + window].reshape((n_out * C,) + spatial))
    return np.ascontiguousarray(np.stack(xs)), np.ascontiguousarray(np.stack(ys))


def make_spacetime_pairs(
    data: np.ndarray,
    n_in: int = 10,
    n_out: int = 10,
    stride: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Windowed pairs for the 3-D (space–time) FNO.

    Returns ``X`` of shape ``(N, C, n, n, n_in)`` and ``Y`` of shape
    ``(N, C, n, n, n_out)``; the temporal axis is last, matching
    :class:`repro.nn.FNO` built from a ``SpaceTimeFNOConfig``.
    """
    if data.ndim != 5:
        raise ValueError("expected (S, T, C, n, n) data")
    S, T, C, n1, n2 = data.shape
    if stride is None:
        stride = n_out
    window = n_in + n_out
    if window > T:
        raise ValueError(f"window {window} exceeds trajectory length {T}")
    starts = range(0, T - window + 1, stride)
    xs, ys = [], []
    for s in range(S):
        for t0 in starts:
            block_in = data[s, t0 : t0 + n_in]  # (n_in, C, n, n)
            block_out = data[s, t0 + n_in : t0 + window]
            xs.append(np.moveaxis(block_in, 0, -1))  # (C, n, n, n_in)
            ys.append(np.moveaxis(block_out, 0, -1))
    return np.ascontiguousarray(np.stack(xs)), np.ascontiguousarray(np.stack(ys))


def train_test_split_samples(
    samples: list, n_test: int, rng=None
) -> tuple[list, list]:
    """Split trajectories (not windows!) into train and test sets.

    Splitting at the trajectory level prevents leakage between windows of
    the same simulation — the paper evaluates on 500 held-out initial
    conditions.
    """
    if n_test < 0 or n_test >= len(samples):
        raise ValueError("n_test must be in [0, len(samples))")
    if rng is None:
        order = np.arange(len(samples))
    else:
        order = rng.permutation(len(samples))
    test_idx = set(order[:n_test].tolist())
    train = [s for i, s in enumerate(samples) if i not in test_idx]
    test = [s for i, s in enumerate(samples) if i in test_idx]
    return train, test
