"""Tests of the repro.checks static-analysis framework and its per-file rules.

Fixture files with seeded violations exercise every per-file rule; the
suppression and baseline round-trips pin the grandfathering semantics;
the meta-tests at the bottom assert the repo itself is clean under its
committed baseline — per-file rules and whole-program analyses in one
run, the same gate CI runs.  The analyses' own fixtures live in
test_analyze.py.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.checks import (
    Baseline,
    all_rules,
    check_paths,
    classify_zone,
    load_baseline,
    prune_baseline,
    write_baseline,
)
from repro.checks.cli import main as check_main

REPO_ROOT = Path(__file__).resolve().parent.parent

# One seeded violation per rule, in a path that lands in the zone the
# rule watches (see classify_zone).
FIXTURES = {
    "RPR001": (
        "src/repro/nn/fixture_dtype.py",
        "import numpy as np\n"
        "def f(x):\n"
        "    return np.fft.rfft2(x)\n",
    ),
    "RPR002": (
        "src/repro/serve/fixture_threads.py",
        "class S:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "    def bump(self):\n"
        "        self.n += 1\n",
    ),
    "RPR003": (
        "src/repro/core/fixture_rng.py",
        "import numpy as np\n"
        "def f():\n"
        "    return np.random.default_rng().normal()\n",
    ),
    "RPR004": (
        "src/repro/core/fixture_api.py",
        "def f(x, acc=[]):\n"
        "    acc.append(x)\n"
        "    return acc\n",
    ),
    "RPR005": (
        "src/repro/ns/fixture_numerics.py",
        "def f(x):\n"
        "    try:\n"
        "        return 1.0 / x\n"
        "    except:\n"
        "        return 0.0\n",
    ),
    "RPR006": (
        "src/repro/core/fixture_obs.py",
        "import time\n"
        "def f(start):\n"
        "    return time.time() - start\n",
    ),
    "RPR007": (
        "src/repro/core/fixture_faults.py",
        "def f(op):\n"
        "    while True:\n"
        "        try:\n"
        "            return op()\n"
        "        except Exception:\n"
        "            continue\n",
    ),
    "RPR008": (
        "src/repro/core/fixture_artifacts.py",
        "import numpy as np\n"
        "def f(path, x):\n"
        "    np.savez_compressed(path, x=x)\n",
    ),
    "RPR009": (
        "src/repro/compile/fixture_compile.py",
        "import numpy as np\n"
        "def build(out_slot):\n"
        "    def run(values):\n"
        "        values[out_slot] = np.zeros((4, 4))\n"
        "    return run\n",
    ),
    "RPR010": (
        "src/repro/data/fixture_procs.py",
        "import multiprocessing as mp\n"
        "def f(fn, items):\n"
        "    with mp.Pool(4) as pool:\n"
        "        return pool.map(fn, items)\n",
    ),
    "RPR011": (
        "src/repro/core/fixture_trust.py",
        "import numpy as np\n"
        "from repro.trust import rms_divergence\n"
        "def f(u):\n"
        "    return rms_divergence(u.astype(np.float64))\n",
    ),
}


def _write_fixture(tmp_path: Path, rule: str, suppress: bool = False) -> Path:
    relpath, source = FIXTURES[rule]
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    if suppress:
        lines = source.splitlines()
        # Attach the suppression to the line each rule anchors on.
        anchor = {
            "RPR001": "np.fft.rfft2",
            "RPR002": "self.n += 1",
            "RPR003": "default_rng()",
            "RPR004": "acc=[]",
            "RPR005": "except:",
            "RPR006": "time.time()",
            "RPR007": "while True:",
            "RPR008": "np.savez_compressed",
            "RPR009": "np.zeros",
            "RPR010": "mp.Pool(4)",
            "RPR011": "astype",
        }[rule]
        lines = [
            line + f"  # repro: ignore[{rule}] -- seeded fixture" if anchor in line else line
            for line in lines
        ]
        source = "\n".join(lines) + "\n"
    path.write_text(source)
    return path


class TestZones:
    def test_hot_solver_test_other(self):
        assert classify_zone("src/repro/nn/fno.py") == "hot"
        assert classify_zone("src/repro/serve/service.py") == "hot"
        assert classify_zone("src/repro/tensor/ops.py") == "hot"
        assert classify_zone("src/repro/ns/fields.py") == "solver"
        assert classify_zone("src/repro/compile/kernels.py") == "compile"
        assert classify_zone("src/repro/ns3d/solver.py") == "solver"
        assert classify_zone("tests/test_checks.py") == "test"
        assert classify_zone("src/repro/core/training.py") == "other"
        assert classify_zone("conftest.py") == "test"


class TestRulePack:
    @pytest.mark.parametrize("rule", sorted(FIXTURES))
    def test_seeded_violation_is_found(self, tmp_path, rule):
        path = _write_fixture(tmp_path, rule)
        result = check_paths([path], root=tmp_path)
        assert [f.rule for f in result.findings] == [rule], result.findings
        finding = result.findings[0]
        assert finding.path == FIXTURES[rule][0]
        assert finding.line >= 1 and finding.message

    @pytest.mark.parametrize("rule", sorted(FIXTURES))
    def test_suppression_silences_exactly_that_rule(self, tmp_path, rule):
        path = _write_fixture(tmp_path, rule, suppress=True)
        result = check_paths([path], root=tmp_path)
        assert result.findings == []
        assert [f.rule for f in result.suppressed] == [rule]

    @pytest.mark.parametrize("rule", sorted(FIXTURES))
    def test_deleting_the_suppression_fails_again(self, tmp_path, rule):
        # The acceptance loop: suppressed fixture is clean, stripping the
        # comment resurfaces the finding (non-zero exit via CLI below).
        path = _write_fixture(tmp_path, rule, suppress=True)
        assert check_paths([path], root=tmp_path).ok
        path.write_text(path.read_text().replace(f"  # repro: ignore[{rule}] -- seeded fixture", ""))
        result = check_paths([path], root=tmp_path)
        assert not result.ok and result.findings[0].rule == rule

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        relpath, source = FIXTURES["RPR003"]
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source.replace(
            "return np.random.default_rng().normal()",
            "return np.random.default_rng().normal()  # repro: ignore[RPR001]",
        ))
        result = check_paths([path], root=tmp_path)
        assert [f.rule for f in result.findings] == ["RPR003"]

    def test_file_level_suppression(self, tmp_path):
        relpath, source = FIXTURES["RPR001"]
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("# repro: ignore-file[RPR001]\n" + source)
        result = check_paths([path], root=tmp_path)
        assert result.findings == [] and len(result.suppressed) == 1

    def test_rule002_lock_guarded_write_is_clean(self, tmp_path):
        path = tmp_path / "src/repro/serve/fixture_locked.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "import threading\n"
            "class S:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n"
            "    def bump(self):\n"
            "        with self._lock:\n"
            "            self.n += 1\n"
        )
        assert check_paths([path], root=tmp_path).ok

    def test_rule003_seeded_rng_is_clean(self, tmp_path):
        path = tmp_path / "src/repro/core/fixture_seeded.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "import numpy as np\n"
            "def f():\n"
            "    return np.random.default_rng(0).normal()\n"
        )
        assert check_paths([path], root=tmp_path).ok

    def test_rule005_dealias_forwarded_is_clean(self, tmp_path):
        path = tmp_path / "src/repro/core/fixture_dealias.py"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "def make(n, nu, dealias=True):\n"
            "    return SpectralNSSolver2D(n, nu, dealias=dealias)\n"
        )
        assert check_paths([path], root=tmp_path).ok
        path.write_text(
            "def make(n, nu, dealias=True):\n"
            "    return SpectralNSSolver2D(n, nu)\n"
        )
        result = check_paths([path], root=tmp_path)
        assert [f.rule for f in result.findings] == ["RPR005"]

    def test_select_restricts_rules(self, tmp_path):
        _write_fixture(tmp_path, "RPR001")
        _write_fixture(tmp_path, "RPR003")
        result = check_paths([tmp_path / "src"], select=["RPR003"], root=tmp_path)
        assert [f.rule for f in result.findings] == ["RPR003"]

    def test_syntax_error_is_reported_not_crashed(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        result = check_paths([path], root=tmp_path)
        assert result.errors and not result.findings


class TestBaseline:
    def test_round_trip_absorbs_then_resurfaces(self, tmp_path):
        path = _write_fixture(tmp_path, "RPR001")
        first = check_paths([path], root=tmp_path)
        assert len(first.findings) == 1

        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, Baseline.from_findings(first.findings))
        second = check_paths([path], root=tmp_path, baseline=load_baseline(baseline_path))
        assert second.ok and len(second.baselined) == 1

        # A *second* identical violation exceeds the grandfathered count.
        path.write_text(path.read_text() + "def g(x):\n    return np.fft.rfft2(x)\n")
        third = check_paths([path], root=tmp_path, baseline=load_baseline(baseline_path))
        assert len(third.baselined) == 1 and len(third.findings) == 1

    def test_baseline_keys_survive_line_shifts(self, tmp_path):
        path = _write_fixture(tmp_path, "RPR001")
        baseline = Baseline.from_findings(check_paths([path], root=tmp_path).findings)
        path.write_text("# a new leading comment\n\n" + path.read_text())
        result = check_paths([path], root=tmp_path, baseline=baseline)
        assert result.ok and len(result.baselined) == 1

    def test_missing_baseline_file_is_empty(self, tmp_path):
        assert len(load_baseline(tmp_path / "nope.json")) == 0

    def test_bad_baseline_version_rejected(self, tmp_path):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"version": 99, "findings": {}}))
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_prune_drops_stale_and_clamps_counts(self, tmp_path):
        path = _write_fixture(tmp_path, "RPR001")
        live = check_paths([path], root=tmp_path).findings
        assert len(live) == 1
        key = live[0].baseline_key()
        stale = Baseline({key: 3, "RPR001::gone.py::x = 1": 2}, comment="keep me")
        pruned, removed = prune_baseline(stale, live)
        # the fixture key is clamped 3 -> 1, the dead-file entry vanishes
        assert pruned.counts == {key: 1}
        assert removed == 4
        assert pruned.comment == "keep me"

    def test_prune_is_identity_on_clean_baseline(self, tmp_path):
        path = _write_fixture(tmp_path, "RPR001")
        live = check_paths([path], root=tmp_path).findings
        baseline = Baseline.from_findings(live)
        pruned, removed = prune_baseline(baseline, live)
        assert removed == 0 and pruned.counts == baseline.counts

    def test_cli_prune_rewrites_only_when_stale(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = _write_fixture(tmp_path, "RPR001")
        baseline_path = tmp_path / "baseline.json"
        live = check_paths([path], root=tmp_path).findings
        write_baseline(baseline_path, Baseline(
            {live[0].baseline_key(): 1, "RPR001::gone.py::x = 1": 1}))
        before = baseline_path.read_text()

        assert check_main([str(path), "--baseline", str(baseline_path),
                           "--prune-baseline"]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 stale entry" in out
        assert "gone.py" not in baseline_path.read_text()

        # a second prune finds nothing and leaves the file untouched
        after = baseline_path.read_text()
        assert check_main([str(path), "--baseline", str(baseline_path),
                           "--prune-baseline"]) == 0
        assert "pruned 0 stale entries" in capsys.readouterr().out
        assert baseline_path.read_text() == after
        assert after != before

    STALE = "RPR001::src/repro/nn/fixture_dtype.py::x = 1"

    def _scoped_fixture(self, tmp_path, monkeypatch):
        """An RPR001 file and an RPR003 file, their live entries and a stale one."""
        monkeypatch.chdir(tmp_path)
        _write_fixture(tmp_path, "RPR001")
        _write_fixture(tmp_path, "RPR003")
        live = {f.rule: f.baseline_key()
                for f in check_paths(["src"], root=tmp_path).findings}
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, Baseline(
            {live["RPR001"]: 1, live["RPR003"]: 1, self.STALE: 1}))
        return baseline_path, live

    def test_cli_prune_keeps_entries_outside_the_run(self, tmp_path, capsys, monkeypatch):
        baseline_path, live = self._scoped_fixture(tmp_path, monkeypatch)
        # An unselected rule and an unscanned file keep every entry,
        # stale ones included.
        for args in (["src", "--select", "RPR003"], ["src/repro/core"]):
            assert check_main(args + ["--baseline", str(baseline_path),
                                      "--prune-baseline"]) == 0
            assert "pruned 0 stale entries" in capsys.readouterr().out
            assert set(load_baseline(baseline_path).counts) == {*live.values(), self.STALE}
        # The run that covers the stale entry drops it, and only it.
        assert check_main(["src/repro/nn", "--baseline", str(baseline_path),
                           "--prune-baseline"]) == 0
        assert "pruned 1 stale entry" in capsys.readouterr().out
        assert set(load_baseline(baseline_path).counts) == set(live.values())

    def test_cli_write_keeps_entries_outside_the_run(self, tmp_path, capsys, monkeypatch):
        baseline_path, live = self._scoped_fixture(tmp_path, monkeypatch)
        for args in (["src", "--select", "RPR003"], ["src/repro/core"]):
            assert check_main(args + ["--baseline", str(baseline_path),
                                      "--write-baseline"]) == 0
            capsys.readouterr()
            assert set(load_baseline(baseline_path).counts) == {*live.values(), self.STALE}
        # A full run rewrites every entry from the live findings.
        assert check_main(["src", "--baseline", str(baseline_path),
                           "--write-baseline"]) == 0
        assert set(load_baseline(baseline_path).counts) == set(live.values())


class TestCLI:
    def test_exit_codes_and_json_schema(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        _write_fixture(tmp_path, "RPR003")
        code = check_main(["src", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["version"] == 1 and payload["ok"] is False
        assert set(payload["counts"]) == {"files", "findings", "baselined", "suppressed", "errors"}
        finding = payload["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col", "message", "snippet"}
        assert finding["rule"] == "RPR003"

        # Grandfather it, then the same invocation is clean.
        assert check_main(["src", "--write-baseline"]) == 0
        capsys.readouterr()
        assert check_main(["src", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["counts"]["baselined"] == 1

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "src").mkdir()
        assert check_main(["src", "--select", "RPR999"]) == 2

    def test_missing_path_is_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert check_main(["does-not-exist"]) == 2

    def test_list_rules_names_the_pack(self, capsys):
        assert check_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in (
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006", "RPR007",
            "RPR008", "RPR009", "RPR010", "RPR011",
        ):
            assert rule_id in out

    def test_readme_lists_every_rule(self, capsys):
        """The README rule table covers everything `--list-rules` prints."""
        assert check_main(["--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == [spec.id for spec in all_rules()] and len(listed) == 16
        readme = (REPO_ROOT / "README.md").read_text()
        missing = [rule_id for rule_id in listed if f"| {rule_id} |" not in readme]
        assert missing == [], f"README rule table lacks {missing}"


class TestRepoIsClean:
    def test_src_runs_clean_under_committed_baseline(self):
        """The CI gate: zero unbaselined findings across src/, per-file and whole-program."""
        baseline = load_baseline(REPO_ROOT / "checks-baseline.json")
        result = check_paths([REPO_ROOT / "src"], baseline=baseline, root=REPO_ROOT)
        assert result.errors == []
        assert result.findings == [], "new findings:\n" + "\n".join(
            f.render() for f in result.findings
        )

    def test_committed_baseline_is_prune_clean(self):
        """Every grandfathered entry still points at live code."""
        baseline = load_baseline(REPO_ROOT / "checks-baseline.json")
        live = check_paths([REPO_ROOT / "src"], baseline=Baseline(),
                           root=REPO_ROOT).findings
        _, removed = prune_baseline(baseline, live)
        assert removed == 0, (
            f"{removed} stale baseline entr(y/ies); "
            "run `repro check --prune-baseline` and commit the result"
        )

    def test_cli_subcommand_wires_through(self):
        """`repro check` exits 0 on the repo from the command line."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", "src", "--format", "json"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True and payload["counts"]["findings"] == 0
        assert payload["callgraph"]["concurrent"] > 0
        assert payload["provenance"]
