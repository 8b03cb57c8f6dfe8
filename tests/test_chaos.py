"""Chaos-harness tests: scenario coverage, verdict determinism, and the
``repro chaos`` CLI contract."""

from __future__ import annotations

import json

import pytest

from repro.faults import injection
from repro.faults.chaos import SCENARIOS, run_matrix, run_scenario


class TestScenarios:
    def test_registry_names(self):
        assert set(SCENARIOS) == {
            "checkpoint_atomicity",
            "crash_resume",
            "serve_faults",
            "rollout_guard",
            "proc_worker_kill",
            "trust_fallback",
            "replica_kill",
            "bad_deploy",
        }

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_passes_and_leaves_injection_clean(self, name, tmp_path):
        cell = run_scenario(name, seed=0, workdir=tmp_path)
        assert cell["scenario"] == name and cell["checks"]
        failed = [c for c in cell["checks"] if not c["ok"]]
        assert not failed, f"{name} failed checks: {failed}"
        assert cell["ok"] is True
        assert not injection.ACTIVE  # scenarios must uninstall their plans

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_matrix([0], scenarios=["does_not_exist"], workdir=tmp_path)


class TestVerdict:
    def test_matrix_verdict_shape(self, tmp_path):
        verdict = run_matrix(
            [0], scenarios=["checkpoint_atomicity", "rollout_guard"],
            workdir=tmp_path,
        )
        assert verdict["version"] == 1
        assert verdict["seeds"] == [0]
        assert verdict["scenarios"] == ["checkpoint_atomicity", "rollout_guard"]
        assert verdict["ok"] is True
        assert len(verdict["results"]) == 2
        for cell in verdict["results"]:
            assert set(cell) >= {"scenario", "seed", "ok", "checks"}
            for check in cell["checks"]:
                assert set(check) == {"name", "ok", "detail"}

    def test_same_seed_same_verdict_json(self, tmp_path):
        kwargs = dict(scenarios=["checkpoint_atomicity", "rollout_guard"])
        first = run_matrix([0, 1], workdir=tmp_path / "a", **kwargs)
        second = run_matrix([0, 1], workdir=tmp_path / "b", **kwargs)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_verdict_is_json_serializable(self, tmp_path):
        verdict = run_matrix([0], scenarios=["rollout_guard"], workdir=tmp_path)
        json.dumps(verdict)  # must not raise


class TestChaosCli:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        code = main(["chaos", *argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_list_scenarios(self, capsys):
        code, out, _ = self.run_cli(capsys, "--list")
        assert code == 0
        for name in SCENARIOS:
            assert name in out

    def test_single_scenario_run_emits_verdict(self, capsys, tmp_path):
        code, out, err = self.run_cli(
            capsys, "--scenario", "rollout_guard",
            "--workdir", str(tmp_path), "--out", str(tmp_path / "v.json"),
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["ok"] is True
        assert json.loads((tmp_path / "v.json").read_text()) == verdict
        assert "1/1 scenario cells passed" in err

    def test_bad_arguments_exit_2(self, capsys, tmp_path):
        code, _, err = self.run_cli(capsys, "--seed-matrix", "0")
        assert code == 2 and "seed-matrix" in err
        code, _, err = self.run_cli(
            capsys, "--scenario", "nope", "--workdir", str(tmp_path)
        )
        assert code == 2 and "unknown scenario" in err
