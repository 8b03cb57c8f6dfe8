"""Training loop (Adam + StepLR + relative-L2 loss, as in the paper).

Supports checkpoint/resume: :meth:`Trainer.save_checkpoint` captures the
model, the Adam moments, the scheduler position and the history, and
:meth:`Trainer.load_checkpoint` restores them so a run continues exactly
where it stopped — important for the paper-scale multi-hour trainings
(Table I lists runs up to 23 h).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..compile import runtime as _compile
from .. import obs
from ..data.loader import DataLoader
from ..nn import DivergenceLoss, H1Loss, LpLoss, Module, MSELoss
from ..optim import Adam, StepLR
from ..tensor import Tensor, no_grad
from ..utils.artifacts import (
    CheckpointError,
    atomic_write_npz,
    guarded_npz_load,
    stable_hash,
)
from .config import TrainingConfig

__all__ = ["TrainingHistory", "Trainer", "make_loss"]


def make_loss(name: str) -> Module:
    """Loss factory for :class:`TrainingConfig.loss`."""
    table = {
        "l2": LpLoss,
        "mse": MSELoss,
        "h1": H1Loss,
        "divergence": DivergenceLoss,
    }
    try:
        return table[name]()
    except KeyError:
        raise ValueError(f"unknown loss {name!r}; choose from {sorted(table)}") from None


def _cast(batch: Tensor, dtype) -> Tensor:
    """``batch`` in ``dtype``: the same tensor when it already matches."""
    return batch if batch.dtype == dtype else Tensor(batch.data.astype(dtype))


@dataclass
class TrainingHistory:
    """Per-epoch record of a training run."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    learning_rate: list[float] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return float(sum(self.epoch_seconds))

    @property
    def best_val_loss(self) -> float:
        return min(self.val_loss) if self.val_loss else float("nan")

    def as_dict(self) -> dict[str, list[float]]:
        return {
            "train_loss": self.train_loss,
            "val_loss": self.val_loss,
            "learning_rate": self.learning_rate,
            "epoch_seconds": self.epoch_seconds,
        }


class Trainer:
    """Fits a model with the paper's protocol.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module` mapping input tensors to predictions.
    config:
        Optimisation hyper-parameters (lr, StepLR step/gamma, epochs, …).
    loss:
        Override the loss module (defaults to ``config.loss``).
    """

    def __init__(self, model: Module, config: TrainingConfig, loss: Module | None = None):
        self.model = model
        self.config = config
        self.loss = loss if loss is not None else make_loss(config.loss)
        self.optimizer = Adam(
            model.parameters(),
            lr=config.learning_rate,
            weight_decay=config.weight_decay,
        )
        self.scheduler = StepLR(
            self.optimizer, step_size=config.scheduler_step, gamma=config.scheduler_gamma
        )
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    def train_epoch(self, loader: DataLoader) -> float:
        """One pass over the loader; returns the mean batch loss.

        Each batch is cast to the model's parameter dtype (no copy when
        it already matches), so a float32 model trains in float32 on
        float64 arrays instead of silently computing in float64.  The
        model call goes through :func:`repro.compile.train_forward`: a
        compiled forward + backward plan, bitwise equal to eager, for
        models built from ops with a VJP in the op table; eager otherwise.
        """
        self.model.train()
        dtype = next(self.model.parameters()).dtype
        total, count = 0.0, 0
        for xb, yb in loader:
            xb, yb = _cast(xb, dtype), _cast(yb, dtype)
            with obs.span("train.batch", size=xb.shape[0]) as sp:
                self.model.zero_grad()
                loss = self.loss(_compile.train_forward(self.model, xb), yb)
                loss.backward()
                self.optimizer.step()
                batch_loss = loss.item()
                sp.set(loss=batch_loss)
            total += batch_loss * xb.shape[0]
            count += xb.shape[0]
            obs.metric_counter("train_batches_total")
        return total / max(count, 1)

    def evaluate(self, x: np.ndarray, y: np.ndarray, batch_size: int | None = None) -> float:
        """Mean loss over a held-out array pair (no gradients), each batch
        cast to the model's parameter dtype."""
        self.model.eval()
        dtype = next(self.model.parameters()).dtype
        bs = batch_size or self.config.batch_size
        total, count = 0.0, 0
        with no_grad():
            for start in range(0, len(x), bs):
                xb = Tensor(np.asarray(x[start : start + bs], dtype=dtype))
                yb = Tensor(np.asarray(y[start : start + bs], dtype=dtype))
                loss = self.loss(self.model(xb), yb)
                total += loss.item() * xb.shape[0]
                count += xb.shape[0]
        return total / max(count, 1)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    @property
    def epochs_completed(self) -> int:
        return len(self.history.train_loss)

    def config_hash(self) -> str:
        """Hash of everything a checkpoint must agree with to be resumable.

        Covers the model's parameter shapes/dtypes, the optimisation
        hyper-parameters and the loss — but **not** ``epochs``, so
        legitimately extending a finished run (same everything, more
        epochs) is not rejected.
        """
        return self._hash_with(self.model.state_dict())

    def _hash_with(self, model_state: dict) -> str:
        """:meth:`config_hash` computed over ``model_state``'s arrays."""
        shapes = {
            name: [list(value.shape), str(value.dtype)]
            for name, value in model_state.items()
        }
        cfg = self.config.to_dict()
        cfg.pop("epochs", None)
        return stable_hash(
            {"model": shapes, "training": cfg, "loss": type(self.loss).__name__}
        )

    def save_checkpoint(self, path) -> None:
        """Write model weights, optimiser moments, scheduler position and
        the training history to ``path`` (npz).

        The write is atomic (temp file + ``os.replace``), so a crash
        mid-save leaves the previous checkpoint intact; wrap the call in
        :func:`repro.faults.call_with_retry` to retry transient I/O
        errors.
        """
        path = Path(path)
        arrays: dict[str, np.ndarray] = {}
        for name, value in self.model.state_dict().items():
            arrays[f"model::{name}"] = value
        opt_state = self.optimizer.state_dict()
        for i, (m, v) in enumerate(zip(opt_state["m"], opt_state["v"])):
            arrays[f"opt::m{i}"] = m
            arrays[f"opt::v{i}"] = v
        config_hash = self.config_hash()
        header = {
            "opt_t": opt_state["t"],
            "opt_lr": opt_state["lr"],
            "n_params": len(opt_state["m"]),
            "scheduler_epoch": self.scheduler.epoch,
            "config_hash": config_hash,
            "history": self.history.as_dict(),
        }
        arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        manifest = {
            "kind": "checkpoint", "config_hash": config_hash,
            "seed": self.config.seed,
            "extra": {"epoch": self.epochs_completed},
        }
        atomic_write_npz(path, arrays, site="checkpoint.write", manifest=manifest)

    def _raise_if_only_dtype_differs(self, path, stored_hash: str, stored: dict) -> None:
        """Name the dtypes when they are all that separates a checkpoint
        from this trainer (same names, shapes, optimiser settings, loss)."""
        own = self.model.state_dict()
        same_shapes = ({k: v.shape for k, v in stored.items()}
                       == {k: v.shape for k, v in own.items()})
        if not same_shapes or self._hash_with(stored) != stored_hash:
            return
        theirs = ", ".join(sorted({v.dtype.name for v in stored.values()}))
        ours = ", ".join(sorted({v.dtype.name for v in own.values()}))
        raise CheckpointError(
            f"{path}: checkpoint weights are {theirs} but this trainer's model "
            f"is {ours}; only the dtype differs from the run that wrote it. "
            f"Build the model with the checkpoint's dtype (the model "
            f"builders take `dtype=np.{theirs}`) to resume it."
        )

    def load_checkpoint(self, path) -> None:
        """Restore a state written by :meth:`save_checkpoint`.

        Raises :class:`repro.utils.CheckpointError` (naming the path)
        when the file is missing, truncated, not a checkpoint, fails its
        integrity manifest, or was written under a different training
        configuration (config-hash mismatch) — the last *before* any
        state is applied, so a rejected load leaves the trainer intact.
        """
        path = Path(path)
        with guarded_npz_load(path, verify=True) as data:
            if "header" not in data.files:
                raise CheckpointError(
                    f"{path}: not a trainer checkpoint (npz without a "
                    f"'header' entry; keys: {sorted(data.files)[:8]})"
                )
            header = json.loads(bytes(data["header"]).decode())
            model_state = {
                key[len("model::") :]: data[key]
                for key in data.files
                if key.startswith("model::")
            }
            stored_hash = header.get("config_hash")
            if stored_hash is not None and stored_hash != self.config_hash():
                self._raise_if_only_dtype_differs(path, stored_hash, model_state)
                raise CheckpointError(
                    f"{path}: checkpoint was written under config hash "
                    f"{stored_hash}, but this trainer hashes to "
                    f"{self.config_hash()} — the model architecture, "
                    f"optimiser settings or loss differ from the run that "
                    f"wrote it. Rebuild the trainer with the original config "
                    f"or start a fresh run directory. "
                    f"Changing only `epochs` never changes the hash, so "
                    f"extending training is always allowed."
                )
            self.model.load_state_dict(model_state)
            n = int(header["n_params"])
            self.optimizer.load_state_dict({
                "t": header["opt_t"],
                "lr": header["opt_lr"],
                "m": [data[f"opt::m{i}"] for i in range(n)],
                "v": [data[f"opt::v{i}"] for i in range(n)],
            })
            self.scheduler.epoch = int(header["scheduler_epoch"])
            hist = header["history"]
            self.history = TrainingHistory(
                train_loss=list(hist["train_loss"]),
                val_loss=list(hist["val_loss"]),
                learning_rate=list(hist["learning_rate"]),
                epoch_seconds=list(hist["epoch_seconds"]),
            )

    # ------------------------------------------------------------------
    def fit(
        self,
        x_train: np.ndarray,
        y_train: np.ndarray,
        x_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
        log_every: int = 0,
        rng=None,
        checkpoint_path=None,
        checkpoint_every: int = 0,
    ) -> TrainingHistory:
        """Train until ``config.epochs`` epochs are completed in total.

        When resuming from a checkpoint, only the remaining epochs run.
        Validation (if given) is evaluated after every epoch with the
        training loss module.  With ``checkpoint_path`` and
        ``checkpoint_every`` set, a checkpoint is written every that many
        epochs (and at the end).  A ``{epoch}`` placeholder in
        ``checkpoint_path`` (e.g. ``ckpt_{epoch:05d}.npz``) yields
        epoch-numbered checkpoints — each write is a fresh file, so a
        crash during epoch N's save can never damage epoch N-1's.
        """
        loader = DataLoader(
            x_train, y_train, batch_size=self.config.batch_size,
            shuffle=True, rng=self.config.seed if rng is None else rng,
        )
        # Replay the shuffle stream so a resumed run sees the same batch
        # order it would have seen uninterrupted.
        for _ in range(self.epochs_completed):
            loader._rng.permutation(len(x_train))
        with obs.span("train.fit", epochs=self.config.epochs,
                      start_epoch=self.epochs_completed):
            for epoch in range(self.epochs_completed, self.config.epochs):
                # The span is the single monotonic stopwatch for the epoch:
                # the trace record and history.epoch_seconds are the same
                # number by construction (and NTP steps cannot corrupt it,
                # unlike wall-clock time.time()).
                with obs.span("train.epoch", epoch=epoch) as sp:
                    train_loss = self.train_epoch(loader)
                    self.scheduler.step()
                    sp.set(loss=train_loss, lr=self.optimizer.lr)
                elapsed = sp.duration

                self.history.train_loss.append(train_loss)
                self.history.learning_rate.append(self.optimizer.lr)
                self.history.epoch_seconds.append(elapsed)
                obs.metric_gauge("train_loss", train_loss)
                obs.metric_gauge("train_lr", self.optimizer.lr)
                obs.metric_gauge("train_epoch_seconds", elapsed)
                if x_val is not None and y_val is not None:
                    with obs.span("train.validate", epoch=epoch):
                        val_loss = self.evaluate(x_val, y_val)
                    self.history.val_loss.append(val_loss)
                    obs.metric_gauge("train_val_loss", val_loss)

                if log_every and (epoch % log_every == 0 or epoch == self.config.epochs - 1):
                    val = f" val {self.history.val_loss[-1]:.4f}" if self.history.val_loss else ""
                    print(
                        f"epoch {epoch:4d}  train {train_loss:.4f}{val}  "
                        f"lr {self.optimizer.lr:.2e}  {elapsed:.2f}s"
                    )
                if checkpoint_path is not None and checkpoint_every and (
                    (epoch + 1) % checkpoint_every == 0 or epoch == self.config.epochs - 1
                ):
                    target = str(checkpoint_path)
                    if "{epoch" in target:
                        target = target.format(epoch=self.epochs_completed)
                    with obs.span("train.checkpoint", epoch=epoch):
                        self.save_checkpoint(target)
        return self.history
