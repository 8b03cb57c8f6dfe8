"""repro.jobs: journal, manifests/lineage, retention GC, supervisor,
and the resumable pipeline's refusal semantics.

The full crash→resume→bitwise-identical contract is proven by the chaos
scenarios (``pipeline_resume``, ``supervisor_kill`` in
tests/test_chaos.py); here each building block is pinned in isolation,
plus one tiny end-to-end run exercising replay and ``repro verify``.
"""

from __future__ import annotations

import json
import os
import sys
import textwrap

import numpy as np
import pytest

from repro.jobs import (
    EXIT_DIVERGED,
    Heartbeat,
    Journal,
    JournalError,
    Pipeline,
    PipelineConfig,
    PipelineError,
    Supervisor,
    adopt_legacy,
    artifact_record,
    child_command,
    gc_artifacts,
    read_heartbeat,
    verify_chain,
)
from repro.faults.policy import RetryPolicy
from repro.utils.artifacts import (
    CheckpointError,
    atomic_write_npz,
    manifest_path,
    sha256_file,
    verify_manifest,
)


class TestJournal:
    def test_append_load_round_trip_preserves_order(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        with journal:
            journal.append({"type": "run", "status": "created"})
            journal.append({"type": "step", "stage": "data", "status": "started"})
            journal.append({"type": "step", "stage": "data", "status": "done"})
        records = journal.load()
        assert [r.get("status") for r in records] == ["created", "started", "done"]

    def test_missing_file_loads_empty(self, tmp_path):
        journal = Journal(tmp_path / "absent.jsonl")
        assert journal.load() == [] and not journal.exists()

    def test_record_without_type_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="type"):
            Journal(tmp_path / "j.jsonl").append({"status": "done"})

    @pytest.mark.parametrize("after_tear", [b"", b"\n\n"], ids=["torn", "torn_then_blank"])
    def test_torn_final_line_is_dropped(self, tmp_path, after_tear):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"type": "step", "stage": "data", "status": "done"})
        journal.close()
        with open(journal.path, "ab") as fh:
            fh.write(b'{"type": "step", "stage": "tr' + after_tear)  # SIGKILL mid-append
        assert [r["stage"] for r in journal.load()] == ["data"]

    def test_append_after_torn_tail_resumes_cleanly(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"type": "run", "status": "created"})
        journal.append({"type": "step", "stage": "data", "status": "done"})
        journal.close()
        with open(journal.path, "ab") as fh:
            fh.write(b'{"type": "step", "stage": "tr')  # SIGKILL mid-append
        resumed = Journal(journal.path)
        resumed.append({"type": "step", "stage": "train", "status": "started"})
        resumed.append({"type": "step", "stage": "train", "status": "done"})
        resumed.close()
        assert [r["status"] for r in resumed.load()] == ["created", "done", "started", "done"]

    def test_garbage_before_the_tail_is_corruption(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"type": "run"}\nnot json\n{"type": "step"}\n')
        with pytest.raises(JournalError, match="corrupt journal line"):
            Journal(path).load()

    def test_completed_steps_invalidated_by_restart(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"type": "step", "stage": "train", "status": "done"})
        assert set(journal.completed_steps()) == {"train"}
        # Re-running the stage makes its old artifacts unreliable.
        journal.append({"type": "step", "stage": "train", "status": "started"})
        assert journal.completed_steps() == {}
        journal.append({"type": "step", "stage": "train", "status": "done",
                        "attempt": 2})
        assert journal.completed_steps()["train"]["attempt"] == 2

    def test_last_failure(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        assert journal.last_failure() is None
        journal.append({"type": "step", "stage": "data", "status": "failed",
                        "error": "OSError"})
        journal.append({"type": "step", "stage": "data", "status": "done"})
        assert journal.last_failure()["error"] == "OSError"


def _npz(path, value, parents=None):
    manifest = {"kind": "artifact"}
    if parents is not None:
        manifest["parents"] = parents
    atomic_write_npz(path, {"x": np.full(4, float(value))}, manifest=manifest)
    return path


class TestManifestLineage:
    def test_artifact_record_uses_sidecar_checksum(self, tmp_path):
        path = _npz(tmp_path / "a.npz", 1.0)
        record = artifact_record(path)
        assert record == {"path": "a.npz", "sha256": sha256_file(path)}

    def test_artifact_record_relative_to(self, tmp_path):
        path = _npz(tmp_path / "data" / "shard.npz", 1.0)
        assert artifact_record(path, relative_to=tmp_path)["path"] == "data/shard.npz"

    def test_chain_verifies_depth_first(self, tmp_path):
        shard = _npz(tmp_path / "shard.npz", 1.0)
        model = _npz(tmp_path / "model.npz", 2.0, parents=[artifact_record(shard)])
        rollout = _npz(tmp_path / "rollout.npz", 3.0,
                       parents=[artifact_record(model)])
        assert verify_chain(rollout) == [shard, model, rollout]

    def test_chain_detects_corrupt_parent(self, tmp_path):
        shard = _npz(tmp_path / "shard.npz", 1.0)
        model = _npz(tmp_path / "model.npz", 2.0, parents=[artifact_record(shard)])
        blob = bytearray(shard.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        shard.write_bytes(blob)
        with pytest.raises(CheckpointError, match=r"shard\.npz"):
            verify_chain(model)

    def test_chain_detects_rewritten_parent(self, tmp_path):
        # The parent verifies on its own, but is no longer the bytes the
        # child was derived from: lineage mismatch, not corruption.
        shard = _npz(tmp_path / "shard.npz", 1.0)
        model = _npz(tmp_path / "model.npz", 2.0, parents=[artifact_record(shard)])
        _npz(shard, 9.0)
        assert verify_manifest(shard, required=True)
        with pytest.raises(CheckpointError, match="lineage mismatch"):
            verify_chain(model)

    def test_chain_requires_manifests(self, tmp_path):
        path = tmp_path / "bare.npz"
        np.savez_compressed(path, x=np.zeros(2))
        with pytest.raises(CheckpointError, match="no integrity manifest"):
            verify_chain(path)

    def test_adopt_legacy_migrates_pre_manifest_artifacts(self, tmp_path):
        path = tmp_path / "legacy.npz"
        np.savez_compressed(path, x=np.arange(3.0))
        manifest = adopt_legacy(path, kind="shard", seed=7)
        assert manifest["kind"] == "shard" and manifest["seed"] == 7
        assert verify_manifest(path, required=True)["sha256"] == sha256_file(path)
        assert verify_chain(path) == [path]

    def test_adopt_legacy_is_idempotent(self, tmp_path):
        path = _npz(tmp_path / "a.npz", 1.0)
        before = manifest_path(path).read_text()
        adopt_legacy(path, kind="other")  # no-op: sidecar already exists
        assert manifest_path(path).read_text() == before

    def test_adopt_legacy_refuses_corrupt_files(self, tmp_path):
        # A corrupt legacy file must not be blessed with a checksum.
        path = tmp_path / "torn.npz"
        np.savez_compressed(path, x=np.zeros(64))
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(CheckpointError):
            adopt_legacy(path)
        assert not manifest_path(path).exists()


class TestRetention:
    def _family(self, tmp_path, n=5):
        return [_npz(tmp_path / f"ckpt_{i:05d}.npz", float(i)) for i in range(n)]

    def test_keep_last_drops_oldest(self, tmp_path):
        self._family(tmp_path)
        report = gc_artifacts(tmp_path, keep_last=2)
        assert report["kept"] == ["ckpt_00003.npz", "ckpt_00004.npz"]
        assert report["removed"] == ["ckpt_00000.npz", "ckpt_00001.npz",
                                     "ckpt_00002.npz"]
        survivors = sorted(p.name for p in tmp_path.glob("ckpt_*.npz"))
        assert survivors == report["kept"]
        # Sidecars of removed checkpoints are gone too.
        assert not (tmp_path / "ckpt_00000.npz.manifest.json").exists()

    def test_corrupt_checkpoints_removed_first(self, tmp_path):
        paths = self._family(tmp_path)
        blob = bytearray(paths[-1].read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        paths[-1].write_bytes(blob)  # newest, but unverifiable
        report = gc_artifacts(tmp_path, keep_last=3)
        assert report["corrupt"] == ["ckpt_00004.npz"]
        assert "ckpt_00004.npz" in report["removed"]
        assert report["kept"] == ["ckpt_00001.npz", "ckpt_00002.npz",
                                  "ckpt_00003.npz"]

    def test_budget_never_deletes_the_newest(self, tmp_path):
        self._family(tmp_path, n=3)
        report = gc_artifacts(tmp_path, keep_last=3, budget_bytes=1)
        assert report["kept"] == ["ckpt_00002.npz"]
        assert (tmp_path / "ckpt_00002.npz").exists()

    def test_dry_run_reports_without_unlinking(self, tmp_path):
        self._family(tmp_path)
        report = gc_artifacts(tmp_path, keep_last=1, dry_run=True)
        assert len(report["removed"]) == 4
        assert len(list(tmp_path.glob("ckpt_*.npz"))) == 5

    def test_keep_last_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError):
            gc_artifacts(tmp_path, keep_last=0)


class TestHeartbeat:
    def test_beats_advance_seq(self, tmp_path):
        path = tmp_path / "hb.json"
        hb = Heartbeat(path, interval=60.0)  # manual beats only
        hb.beat()
        first = read_heartbeat(path)
        hb.beat()
        second = read_heartbeat(path)
        assert first["pid"] == os.getpid()
        assert second["seq"] == first["seq"] + 1

    def test_read_tolerates_absent_and_torn_files(self, tmp_path):
        assert read_heartbeat(tmp_path / "nope.json") is None
        torn = tmp_path / "torn.json"
        torn.write_text('{"pid": 12')
        assert read_heartbeat(torn) is None


def _kill_free_retry(attempts):
    return RetryPolicy(attempts=attempts, backoff=0.0, retry_on=())


class TestSupervisor:
    def test_success_first_try(self):
        report = Supervisor([sys.executable, "-c", "raise SystemExit(0)"],
                            stall_timeout=None, retry=_kill_free_retry(2)).run()
        assert report["ok"] and report["restarts"] == 0
        assert report["attempts"][0]["outcome"] == "success"

    def test_crash_is_restarted_until_success(self, tmp_path):
        # First launch crashes and leaves a marker; the restart sees the
        # marker and succeeds — the supervisor's whole reason to exist.
        marker = tmp_path / "crashed-once"
        script = textwrap.dedent(f"""
            import pathlib, sys
            marker = pathlib.Path({str(marker)!r})
            if marker.exists():
                sys.exit(0)
            marker.touch()
            sys.exit(1)
        """)
        events = []
        report = Supervisor(
            [sys.executable, "-c", script], stall_timeout=None,
            retry=_kill_free_retry(3),
            on_event=lambda kind, **info: events.append(kind),
        ).run()
        assert report["ok"] and report["restarts"] == 1
        assert [a["outcome"] for a in report["attempts"]] == ["crashed", "success"]
        assert events == ["launch", "crashed", "launch", "success"]

    def test_divergence_escalates_instead_of_retrying(self):
        report = Supervisor(
            [sys.executable, "-c", f"raise SystemExit({EXIT_DIVERGED})"],
            stall_timeout=None, retry=_kill_free_retry(5),
        ).run()
        assert not report["ok"] and report["escalated"] == "RolloutDiverged"
        assert len(report["attempts"]) == 1  # no retry budget wasted

    def test_stalled_child_is_killed(self, tmp_path):
        # Child sleeps forever and never beats: the missed heartbeat
        # deadline must SIGKILL it rather than wait out the sleep.
        report = Supervisor(
            [sys.executable, "-c", "import time; time.sleep(120)"],
            heartbeat_path=tmp_path / "hb.json",
            stall_timeout=0.4, poll_interval=0.05, retry=_kill_free_retry(1),
        ).run()
        assert not report["ok"]
        assert report["attempts"][0]["outcome"] == "stalled"

    def test_child_command_targets_the_cli(self, tmp_path):
        argv = child_command(tmp_path)
        assert argv[:3] == [sys.executable, "-m", "repro.cli"]
        assert "resume" in argv and "--child" in argv and str(tmp_path) in argv


def _tiny_config(**overrides):
    base = dict(
        grid=8, reynolds=200.0, samples=2, warmup=0.02, duration=0.06,
        interval=0.02, samples_per_shard=1, modes=3, width=6, layers=1,
        epochs=1, batch_size=2, test_fraction=0.5, cycles=1, seed=0,
    )
    base.update(overrides)
    return PipelineConfig(**base)


class TestPipelineStateMachine:
    def test_config_round_trip_and_hash(self):
        cfg = _tiny_config()
        assert PipelineConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.config_hash == _tiny_config().config_hash
        assert cfg.config_hash != _tiny_config(seed=1).config_hash

    def test_config_validation(self):
        with pytest.raises(ValueError, match="rollout mode"):
            _tiny_config(rollout_mode="magic")
        with pytest.raises(ValueError, match="at least 2 samples"):
            _tiny_config(samples=1)

    def test_resume_requires_a_run_directory(self, tmp_path):
        with pytest.raises(PipelineError, match="no pipeline.json"):
            Pipeline(tmp_path / "empty")

    def test_config_is_persisted_at_construction(self, tmp_path):
        cfg = _tiny_config()
        Pipeline(tmp_path, cfg)  # a supervised child must find it on disk
        reloaded = Pipeline(tmp_path)
        assert reloaded.config == cfg

    def test_workdir_refuses_a_different_config(self, tmp_path):
        Pipeline(tmp_path, _tiny_config())
        Pipeline(tmp_path, _tiny_config())  # identical is fine
        with pytest.raises(PipelineError, match="different config"):
            Pipeline(tmp_path, _tiny_config(epochs=2))

    def test_fresh_run_refused_over_existing_steps(self, tmp_path):
        pipe = Pipeline(tmp_path, _tiny_config())
        pipe.journal.append({"type": "step", "stage": "data", "status": "started"})
        with pytest.raises(PipelineError, match="journal already has step"):
            pipe.run(resume=False)

    def test_unknown_stage_rejected(self, tmp_path):
        with pytest.raises(PipelineError, match="unknown stage"):
            Pipeline(tmp_path, _tiny_config()).run(stages=["nope"])

    def test_end_to_end_run_replay_and_verify(self, tmp_path, capsys):
        pipe = Pipeline(tmp_path, _tiny_config())
        summary = pipe.run()
        assert [s["status"] for s in summary["stages"]] == ["ran"] * 3

        # Every journaled artifact chains back to verified shards.
        artifacts = pipe.artifact_paths()
        assert (tmp_path / "model.npz") in artifacts
        chain = verify_chain(tmp_path / "rollout.npz")
        assert any(p.name.startswith("shard_") for p in chain)

        # A second resume replays everything from durable artifacts.
        replay = Pipeline(tmp_path).run(resume=True)
        assert [s["status"] for s in replay["stages"]] == ["replayed"] * 3

        # The CLI agrees: `repro verify --workdir` exits 0.
        from repro.cli import main as cli_main
        assert cli_main(["verify", "--workdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

        # Tampering with a shard breaks verification (exit 1).
        shard = next(iter(sorted((tmp_path / "data").glob("shard_*.npz"))))
        blob = bytearray(shard.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        shard.write_bytes(blob)
        assert cli_main(["verify", "--workdir", str(tmp_path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_replay_refused_when_artifact_tampered(self, tmp_path):
        pipe = Pipeline(tmp_path, _tiny_config())
        pipe.run()
        manifest_path(tmp_path / "rollout.npz").unlink()
        summary = Pipeline(tmp_path).run(resume=True)
        statuses = {s["stage"]: s["status"] for s in summary["stages"]}
        # Data and train replay; the rollout must re-execute.
        assert statuses == {"data": "replayed", "train": "replayed",
                            "rollout": "ran"}

    def test_failed_stage_is_journaled(self, tmp_path):
        pipe = Pipeline(tmp_path, _tiny_config())
        pipe.run(stages=["data"])
        (tmp_path / "model.npz").write_bytes(b"")  # not created yet anyway
        with pytest.raises(Exception):
            pipe.run(resume=True, stages=["rollout"])  # model missing
        failure = pipe.journal.last_failure()
        assert failure is not None and failure["stage"] == "rollout"
