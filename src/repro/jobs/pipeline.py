"""Journaled pipeline state machine: data-gen → train → eval/rollout.

A :class:`Pipeline` owns one *run directory*: the serialized
:class:`PipelineConfig` (``pipeline.json``), the append-only
:class:`~repro.jobs.journal.Journal` (``journal.jsonl``), and every
artifact the stages produce (data shards, epoch checkpoints, the final
model, roll-out diagnostics) — all written through
:mod:`repro.utils.artifacts`, so each carries a checksum manifest with
lineage back to the shards it came from.

Stages are idempotent: ``run(resume=True)`` replays a stage from its
durable artifacts when the journal says it finished *and* every
artifact still checksum-verifies; otherwise the stage re-executes, and
each stage knows how to pick up its own partial work (data-gen skips
already-valid shards, training restarts from the newest valid epoch
checkpoint with the shuffle stream replayed).  The chaos harness proves
the contract: kill the run anywhere, resume, and the final weights,
optimizer moments and loss history are bitwise-identical to an
uninterrupted run.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .. import obs
from ..utils.artifacts import (
    CheckpointError,
    atomic_write_json,
    atomic_write_npz,
    stable_hash,
    verify_manifest,
)
from .journal import Journal
from .manifest import artifact_record
from .retention import gc_artifacts

__all__ = ["PipelineConfig", "PipelineError", "Pipeline", "STAGES"]

STAGES = ("data", "train", "rollout")


class PipelineError(RuntimeError):
    """The pipeline cannot run as asked (bad state, failed stage)."""


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one end-to-end run needs, in one serialisable place.

    Defaults are a minutes-scale smoke pipeline; the paper-scale run is
    flag values away (``grid=256, reynolds=7500, samples=5000,
    epochs=500``), exactly like the standalone CLI subcommands.
    """

    # data generation (see repro.data.DataGenConfig)
    grid: int = 16
    reynolds: float = 400.0
    samples: int = 4
    warmup: float = 0.1
    duration: float = 0.2
    interval: float = 0.02
    solver: str = "spectral"
    ic: str = "band"
    samples_per_shard: int = 2
    # model + training
    n_in: int = 2
    n_out: int = 1
    modes: int = 4
    width: int = 8
    layers: int = 2
    epochs: int = 3
    batch_size: int = 4
    lr: float = 1e-3
    scheduler_step: int = 10
    scheduler_gamma: float = 0.5
    loss: str = "l2"
    test_fraction: float = 0.25
    # evaluation roll-out
    rollout_mode: str = "hybrid"  # "hybrid" | "fno"
    cycles: int = 1
    # housekeeping
    keep_checkpoints: int = 3
    checkpoint_budget_mb: float = 0.0  # 0 disables the byte budget
    seed: int = 0

    def __post_init__(self):
        if self.rollout_mode not in ("hybrid", "fno"):
            raise ValueError(f"unknown rollout mode {self.rollout_mode!r}")
        if self.samples < 2:
            raise ValueError("need at least 2 samples (train/test split)")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineConfig":
        return cls(**payload)

    @property
    def config_hash(self) -> str:
        return stable_hash(self.to_dict())

    # -- sub-config views ------------------------------------------------
    def datagen_config(self):
        from ..data import DataGenConfig

        return DataGenConfig(
            n=self.grid, reynolds=self.reynolds, n_samples=self.samples,
            warmup=self.warmup, duration=self.duration,
            sample_interval=self.interval, solver=self.solver, ic=self.ic,
            seed=self.seed,
        )

    def model_config(self):
        from ..core import ChannelFNOConfig

        return ChannelFNOConfig(
            n_in=self.n_in, n_out=self.n_out, n_fields=2,
            modes1=self.modes, modes2=self.modes, width=self.width,
            n_layers=self.layers,
        )

    def training_config(self):
        from ..core import TrainingConfig

        return TrainingConfig(
            epochs=self.epochs, batch_size=self.batch_size,
            learning_rate=self.lr, scheduler_step=self.scheduler_step,
            scheduler_gamma=self.scheduler_gamma, loss=self.loss,
            seed=self.seed,
        )


class Pipeline:
    """One supervised, resumable run rooted at ``workdir``.

    Construct with a :class:`PipelineConfig` to start (the config is
    persisted to ``pipeline.json``), or with ``config=None`` to reload
    an existing run directory — ``repro resume`` never needs the
    original flags.
    """

    def __init__(self, workdir, config: PipelineConfig | None = None):
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "pipeline.json"
        if config is None:
            if not self.config_path.exists():
                raise PipelineError(
                    f"{self.workdir}: no pipeline.json — not a pipeline run "
                    f"directory (start one with `repro run`)"
                )
            import json

            config = PipelineConfig.from_dict(
                json.loads(self.config_path.read_text(encoding="utf-8"))
            )
        elif self.config_path.exists():
            existing = Pipeline(self.workdir).config
            if existing.config_hash != config.config_hash:
                raise PipelineError(
                    f"{self.workdir}: pipeline.json holds a different config "
                    f"(hash {existing.config_hash} != {config.config_hash}); "
                    f"use a fresh --workdir for a different run"
                )
        self.config = config
        if not self.config_path.exists():
            # Persist immediately: `repro resume` (and supervised child
            # processes) must be able to rebuild the config from disk.
            atomic_write_json(self.config_path, config.to_dict())
        self.journal = Journal(self.workdir / "journal.jsonl")
        self.data_dir = self.workdir / "data"
        self.checkpoint_dir = self.workdir / "checkpoints"
        self.model_path = self.workdir / "model.npz"
        self.rollout_path = self.workdir / "rollout.npz"

    # ------------------------------------------------------------------
    def run(self, resume: bool = False, stages=None) -> dict:
        """Execute (or replay) the stage sequence; returns a summary.

        ``resume=False`` on a workdir whose journal already has step
        records is refused — restarting from scratch over existing
        artifacts is exactly the mistake the journal exists to prevent.
        """
        records = self.journal.load()
        has_steps = any(r.get("type") == "step" for r in records)
        if has_steps and not resume:
            raise PipelineError(
                f"{self.workdir}: journal already has step records; "
                f"use `repro resume` (or a fresh --workdir)"
            )
        if not records:
            self.journal.append({
                "type": "run", "status": "created",
                "config_hash": self.config.config_hash, "stages": list(STAGES),
            })
        wanted = list(stages) if stages else list(STAGES)
        unknown = [s for s in wanted if s not in STAGES]
        if unknown:
            raise PipelineError(f"unknown stage(s) {unknown} (known: {list(STAGES)})")
        completed = self.journal.completed_steps() if resume else {}

        summary = {"workdir": str(self.workdir), "stages": []}
        for stage in STAGES:
            if stage not in wanted:
                continue
            replayed = self._replayable(stage, completed.get(stage))
            if replayed is not None:
                summary["stages"].append(
                    {"stage": stage, "status": "replayed", "artifacts": replayed}
                )
                continue
            self.journal.append({"type": "step", "stage": stage, "status": "started"})
            try:
                with obs.span("pipeline.stage", stage=stage):
                    artifacts = getattr(self, f"_stage_{stage}")()
            except BaseException as exc:
                # Journal the failure before propagating so the
                # supervisor (and the next resume) can see *why*.
                self.journal.append({
                    "type": "step", "stage": stage, "status": "failed",
                    "error": type(exc).__name__, "detail": str(exc)[:500],
                })
                raise
            self.journal.append({
                "type": "step", "stage": stage, "status": "done",
                "config_hash": self.config.config_hash,
                "artifacts": [artifact_record(p) for p in artifacts],
            })
            summary["stages"].append({
                "stage": stage, "status": "ran",
                "artifacts": [str(p) for p in artifacts],
            })
        return summary

    def _replayable(self, stage: str, done: dict | None) -> list | None:
        """Artifact paths if ``stage`` can be replayed from disk, else None."""
        if done is None or done.get("config_hash") != self.config.config_hash:
            return None
        paths = []
        for rec in done.get("artifacts", ()):  # every artifact must verify
            path = self.workdir / rec["path"] if stage != "data" \
                else self.data_dir / rec["path"]
            try:
                manifest = verify_manifest(path, required=True)
            except CheckpointError:
                return None
            if manifest["sha256"] != rec["sha256"]:
                return None
            paths.append(str(path))
        return paths

    # -- stages ---------------------------------------------------------
    def _stage_data(self) -> list[Path]:
        from ..data.sharded import generate_sharded_dataset

        return generate_sharded_dataset(
            self.config.datagen_config(), self.data_dir,
            samples_per_shard=self.config.samples_per_shard, resume=True,
        )

    def _load_all_samples(self):
        from ..data import load_samples

        shard_paths = sorted(self.data_dir.glob("shard_*.npz"))
        if not shard_paths:
            raise PipelineError(f"{self.data_dir}: no shards (data stage missing?)")
        samples = []
        for path in shard_paths:
            verify_manifest(path, required=True)
            shard_samples, _ = load_samples(path)
            samples.extend(shard_samples)
        samples.sort(key=lambda s: s.sample_id)
        return samples, shard_paths

    def _stage_train(self) -> list[Path]:
        from ..core import Trainer, build_model, save_model
        from ..data import (
            FieldNormalizer,
            make_channel_pairs,
            stack_fields,
            train_test_split_samples,
        )

        cfg = self.config
        samples, shard_paths = self._load_all_samples()
        n_test = max(1, int(round(cfg.test_fraction * len(samples))))
        if n_test >= len(samples):
            raise PipelineError("dataset too small for the requested test fraction")
        train_s, test_s = train_test_split_samples(
            samples, n_test=n_test, rng=np.random.default_rng(cfg.seed)
        )
        X, Y = make_channel_pairs(stack_fields(train_s, "velocity"), cfg.n_in, cfg.n_out)
        Xt, Yt = make_channel_pairs(stack_fields(test_s, "velocity"), cfg.n_in, cfg.n_out)
        normalizer = FieldNormalizer(n_fields=2).fit(X)

        model_config = cfg.model_config()
        model = build_model(model_config, rng=np.random.default_rng(cfg.seed))
        trainer = Trainer(model, cfg.training_config())

        # Restart from the newest *valid* epoch checkpoint; a torn or
        # mismatched one is skipped in favour of the previous epoch.
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        last_ckpt = None
        for ckpt in sorted(self.checkpoint_dir.glob("ckpt_*.npz"), reverse=True):
            try:
                verify_manifest(ckpt, required=True)
                trainer.load_checkpoint(ckpt)
                last_ckpt = ckpt
                break
            except CheckpointError:
                continue
        trainer.fit(
            normalizer.encode(X), normalizer.encode(Y),
            normalizer.encode(Xt), normalizer.encode(Yt),
            checkpoint_path=self.checkpoint_dir / "ckpt_{epoch:05d}.npz",
            checkpoint_every=1,
        )
        final_ckpt = self.checkpoint_dir / f"ckpt_{trainer.epochs_completed:05d}.npz"
        # Lineage paths are relative to the run root (model.npz's home),
        # so verify_chain can walk them from the model's directory.
        parents = [artifact_record(p, relative_to=self.workdir) for p in shard_paths]
        if final_ckpt.exists():
            parents.append(artifact_record(final_ckpt, relative_to=self.workdir))
        elif last_ckpt is not None:  # resumed past the last epoch: no new writes
            parents.append(artifact_record(last_ckpt, relative_to=self.workdir))
        save_model(
            self.model_path, model, model_config, normalizer,
            manifest={"seed": cfg.seed, "parents": parents,
                      "extra": {"epochs": trainer.epochs_completed,
                                "train_loss": trainer.history.train_loss}},
        )
        budget = int(cfg.checkpoint_budget_mb * 2**20) or None
        gc_artifacts(self.checkpoint_dir, keep_last=cfg.keep_checkpoints,
                     budget_bytes=budget)
        return [self.model_path]

    def _stage_rollout(self) -> list[Path]:
        from ..core import HybridConfig, HybridFNOPDE, load_model, run_pure_fno
        from ..faults.policy import DivergenceGuard
        from ..ns import FDNSSolver2D

        cfg = self.config
        model, model_config, normalizer = load_model(self.model_path)
        samples, shard_paths = self._load_all_samples()
        sample = samples[0]
        window = sample.velocity[: model_config.n_in]
        dt = float(sample.times[1] - sample.times[0])
        nu = 2.0 * np.pi / cfg.reynolds

        if cfg.rollout_mode == "hybrid":
            hycfg = HybridConfig(
                n_in=model_config.n_in, n_out=model_config.n_out, n_fields=2,
                sample_interval=dt, n_cycles=cfg.cycles,
            )
            record = HybridFNOPDE(
                model, FDNSSolver2D(sample.grid_size, nu), hycfg,
                normalizer=normalizer,
            ).run(window)
        else:
            n_snap = cfg.cycles * (model_config.n_in + model_config.n_out)
            record = run_pure_fno(
                model, window, n_snapshots=n_snap, n_fields=2,
                normalizer=normalizer, sample_interval=dt,
                guard=DivergenceGuard(),
            )
        d = record.diagnostics()
        atomic_write_npz(
            self.rollout_path,
            {
                "times": np.asarray(d["times"]),
                "kinetic_energy": np.asarray(d["kinetic_energy"]),
                "enstrophy": np.asarray(d["enstrophy"]),
                "rms_divergence": np.asarray(d["rms_divergence"]),
            },
            site="checkpoint.write",
            manifest={"kind": "rollout", "seed": cfg.seed,
                      "parents": [
                          artifact_record(self.model_path, relative_to=self.workdir),
                          artifact_record(shard_paths[0], relative_to=self.workdir),
                      ],
                      "extra": {"mode": cfg.rollout_mode}},
        )
        return [self.rollout_path]

    # ------------------------------------------------------------------
    def artifact_paths(self) -> list[Path]:
        """Every artifact the journal's completed steps claim, resolved."""
        paths: list[Path] = []
        for stage, done in sorted(self.journal.completed_steps().items()):
            base = self.data_dir if stage == "data" else self.workdir
            paths.extend(base / rec["path"] for rec in done.get("artifacts", ()))
        return paths
