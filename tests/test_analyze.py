"""Tests of the whole-program analyses in repro.checks (RPR101–RPR105).

Fixture *packages* (with real ``__init__.py`` chains, so dotted module
names resolve) seed one violation per analysis next to a matching
negative; the suppression/baseline round-trips pin the grandfathering
semantics; the CLI tests drive the same ``repro check`` that CI runs.
The repo-is-clean tests at the bottom run only the whole-program
analyses over src/; test_checks.py gates both halves together.
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
    Project,
    build_callgraph,
    check_paths,
    load_baseline,
)
from repro.checks.cli import main as check_main


REPO_ROOT = Path(__file__).resolve().parent.parent
ANALYSES = ["RPR101", "RPR102", "RPR103", "RPR104", "RPR105"]


def _write_pkg(root: Path, files: dict[str, str]) -> Path:
    """Write ``files`` (relative paths -> source) with __init__ chains."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        # every package directory under root needs an __init__.py
        parent = path.parent
        while parent != root and parent.name != "src":
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("")
            parent = parent.parent
    return root


PRODUCER = (
    "import numpy as np\n"
    "\n"
    "def make_state(n):\n"
    "    return np.zeros((n, n), dtype=np.float32)\n"
)

CONSUMER = (
    "import numpy as np\n"
    "import scipy.fft as sfft\n"
    "from ..nn.producer import make_state\n"
    "\n"
    "def spectrum(n):\n"
    "    state = make_state(n)\n"
    "    return np.fft.rfft2(state)\n"
    "\n"
    "def widen_mix(n):\n"
    "    state = make_state(n)\n"
    "    grid = np.zeros((4, 4))\n"
    "    return state * grid\n"
    "\n"
    "def explicit_ok(n):\n"
    "    state = make_state(n)\n"
    "    return state.astype(np.float64) * 2.0\n"
    "\n"
    "def scipy_ok(n):\n"
    "    state = make_state(n)\n"
    "    return sfft.rfft2(state)\n"
    "\n"
    "def weak_scalar_ok(n):\n"
    "    state = make_state(n)\n"
    "    return state * 2.0\n"
    "\n"
    "def same_module_widen(n):\n"
    "    local = np.zeros((n, n), dtype=np.float32)\n"
    "    return np.fft.rfft2(local)\n"
)

SHAPES = (
    "import numpy as np\n"
    "\n"
    "def bad_matmul():\n"
    "    a = np.zeros((3, 4))\n"
    "    b = np.zeros((5, 6))\n"
    "    return a @ b\n"
    "\n"
    "def bad_broadcast():\n"
    "    a = np.zeros((3, 4))\n"
    "    b = np.zeros((2, 5))\n"
    "    return a + b\n"
    "\n"
    "def good_matmul():\n"
    "    a = np.zeros((3, 4))\n"
    "    b = np.zeros((4, 6))\n"
    "    return a @ b\n"
    "\n"
    "def good_broadcast():\n"
    "    a = np.zeros((3, 4))\n"
    "    b = np.zeros((4,))\n"
    "    return a + b\n"
)

POOL = (
    "import threading\n"
    "\n"
    "class Pool:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.jobs = 0\n"
    "        self.done = 0\n"
    "        self.total = 0\n"
    "        self._thread = None\n"
    "\n"
    "    def start(self):\n"
    "        self._thread = threading.Thread(target=self._run)\n"
    "        self._thread.start()\n"
    "\n"
    "    def _run(self):\n"
    "        with self._lock:\n"
    "            self.jobs += 1\n"
    "            self._locked_step()\n"
    "        self.done += 1\n"
    "\n"
    "    def _locked_step(self):\n"
    "        self.total += 1\n"
    "\n"
    "    def reset(self):\n"
    "        self.jobs = 0\n"
    "\n"
    "    def locked_reset(self):\n"
    "        with self._lock:\n"
    "            self.total = 0\n"
)

CONFINED = (
    "import threading\n"
    "\n"
    "class Sim:\n"
    "    def __init__(self):\n"
    "        self.t = 0\n"
    "\n"
    "    def step(self):\n"
    "        self.t += 1\n"
    "\n"
    "def worker():\n"
    "    sim = Sim()\n"
    "    sim.step()\n"
    "\n"
    "def launch():\n"
    "    threading.Thread(target=worker).start()\n"
)

TORN = (
    "import threading\n"
    "\n"
    "class Stats:\n"
    "    def __init__(self):\n"
    "        self._lock = threading.Lock()\n"
    "        self.count = 0\n"
    "        self.total = 0.0\n"
    "\n"
    "    def observe(self, v):\n"
    "        with self._lock:\n"
    "            self.count += 1\n"
    "            self.total += v\n"
    "\n"
    "    def snapshot(self):\n"
    "        return (self.count, self.total)\n"
    "\n"
    "    def count_only(self):\n"
    "        return self.count\n"
    "\n"
    "    def locked_snapshot(self):\n"
    "        with self._lock:\n"
    "            return (self.count, self.total)\n"
)

SEEDS = (
    "import numpy as np\n"
    "\n"
    "def _draw(rng):\n"
    "    return rng.normal(size=4)\n"
    "\n"
    "def unseeded_write(path):\n"
    "    rng = np.random.default_rng()\n"
    "    np.savez(path, data=_draw(rng))\n"
    "\n"
    "def seeded_write(path, seed):\n"
    "    rng = np.random.default_rng(seed)\n"
    "    np.savez(path, data=_draw(rng))\n"
    "\n"
    "def legacy_write(path):\n"
    "    np.savez(path, data=np.random.normal(size=4))\n"
)


@pytest.fixture
def fixture_root(tmp_path):
    return _write_pkg(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/nn/producer.py": PRODUCER,
        "src/repro/data/consumer.py": CONSUMER,
        "src/repro/data/shapes.py": SHAPES,
        "src/repro/serve/pool.py": POOL,
        "src/repro/serve/confined.py": CONFINED,
        "src/repro/obs/torn.py": TORN,
        "src/repro/jobs/seeds.py": SEEDS,
    })


def _run(root, **kwargs):
    return check_paths([root / "src"], root=root, **kwargs)


def _rules_at(result, path_fragment):
    return sorted(
        (f.rule, f.line) for f in result.findings
        if path_fragment in f.path
    )


class TestProject:
    def test_symbol_table(self, fixture_root):
        project = Project.load([fixture_root / "src"], root=fixture_root)
        assert "repro.nn.producer" in project.modules
        assert "repro.nn.producer.make_state" in project.functions
        pool = project.classes["repro.serve.pool.Pool"]
        assert set(pool.methods) == {
            "__init__", "start", "_run", "_locked_step", "reset", "locked_reset"
        }
        assert pool.lock_attrs == {"_lock"}

    def test_import_resolution(self, fixture_root):
        project = Project.load([fixture_root / "src"], root=fixture_root)
        consumer = project.modules["repro.data.consumer"]
        assert project.resolve_name(consumer, "make_state") == \
            "repro.nn.producer.make_state"

    def test_syntax_error_reported_not_fatal(self, tmp_path):
        pkg = _write_pkg(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/broken.py": "def f(:\n",
            "src/repro/fine.py": "x = 1\n",
        })
        project = Project.load([pkg / "src"], root=pkg)
        assert len(project.errors) == 1
        assert "repro.fine" in project.modules

    def test_same_module_name_in_two_dirs_keeps_both_files(self, tmp_path):
        """Two package-less ``util.py`` files both reach the per-file rules."""
        for name in ("a", "b"):
            path = tmp_path / name / "util.py"
            path.parent.mkdir()
            path.write_text(
                "import numpy as np\n\ndef f():\n    return np.random.rand(3)\n")
        dirs = [tmp_path / "a", tmp_path / "b"]
        project = Project.load(dirs, root=tmp_path)
        assert [m.path for m in project.files] == ["a/util.py", "b/util.py"]
        result = check_paths(dirs, root=tmp_path)
        assert result.n_files == 2
        assert [(f.rule, f.path) for f in result.findings] == [
            ("RPR003", "a/util.py"), ("RPR003", "b/util.py")]

    def test_same_module_name_in_two_dirs_indexes_both_files(self, tmp_path):
        """Colliding package-less names are renamed after their relative
        paths, so the whole-program analyses see both files."""
        racy = (
            "import threading\n\n\n"
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self.n = 0\n\n"
            "    def start(self):\n"
            "        threading.Thread(target=self._run).start()\n\n"
            "    def _run(self):\n"
            "        self.n += 1\n"
        )
        for name in ("a", "b"):
            path = tmp_path / name / "util.py"
            path.parent.mkdir()
            path.write_text(racy)
        dirs = [tmp_path / "a", tmp_path / "b"]
        project = Project.load(dirs, root=tmp_path)
        assert sorted(project.modules) == ["a.util", "b.util"]
        result = check_paths(dirs, root=tmp_path, select=["RPR103"])
        assert [(f.rule, f.path, f.line) for f in result.findings] == [
            ("RPR103", "a/util.py", 13), ("RPR103", "b/util.py", 13)]


class TestCallGraph:
    def test_thread_target_is_entry(self, fixture_root):
        project = Project.load([fixture_root / "src"], root=fixture_root)
        graph = build_callgraph(project)
        assert "repro.serve.pool.Pool._run" in graph.entries
        assert "repro.serve.confined.worker" in graph.entries

    def test_concurrent_closure_and_lock_edges(self, fixture_root):
        project = Project.load([fixture_root / "src"], root=fixture_root)
        graph = build_callgraph(project)
        concurrent = graph.concurrent()
        assert "repro.serve.pool.Pool._locked_step" in concurrent
        assert "repro.serve.confined.Sim.step" in concurrent
        locked_edges = [e for e in graph.edges
                        if e.callee == "repro.serve.pool.Pool._locked_step"]
        assert locked_edges and all(e.locked for e in locked_edges)

    def test_dot_export(self, fixture_root):
        project = Project.load([fixture_root / "src"], root=fixture_root)
        graph = build_callgraph(project)
        dot = graph.to_dot()
        assert dot.startswith("digraph callgraph {")
        assert '"repro.serve.pool.Pool._run"' in dot
        assert 'label="locked"' in dot


class TestDtypeFlow:
    def test_cross_module_widenings_flagged(self, fixture_root):
        result = _run(fixture_root, select=["RPR101"])
        lines = {line for _, line in _rules_at(result, "consumer.py")}
        source = CONSUMER.splitlines()
        assert source[6].strip() == "return np.fft.rfft2(state)"
        assert 7 in lines        # spectrum: np.fft promotion
        assert 12 in lines       # widen_mix: f32 * f64 arithmetic
        assert len(lines) == 2   # and nothing else in the file

    def test_negatives_stay_clean(self, fixture_root):
        """astype, scipy.fft, weak scalars, same-module widening: no findings."""
        result = _run(fixture_root, select=["RPR101"])
        flagged = {line for _, line in _rules_at(result, "consumer.py")}
        source = CONSUMER.splitlines()
        for marker in ("explicit_ok", "scipy_ok", "weak_scalar_ok",
                       "same_module_widen"):
            start = next(i for i, l in enumerate(source) if marker in l)
            assert not any(start + 1 <= line <= start + 3 for line in flagged), \
                f"false positive inside {marker}"

    def test_shape_contracts(self, fixture_root):
        result = _run(fixture_root, select=["RPR102"])
        rules = _rules_at(result, "shapes.py")
        lines = {line for _, line in rules}
        assert len(rules) == 2
        source = SHAPES.splitlines()
        assert all(source[line - 1].strip().startswith("return a")
                   for line in lines)
        good = [i + 1 for i, l in enumerate(source) if "good_" in l]
        assert not any(g < line <= g + 3 for g in good for line in lines)


class TestRaces:
    def test_unlocked_writes_flagged(self, fixture_root):
        result = _run(fixture_root, select=["RPR103"])
        lines = {line for _, line in _rules_at(result, "pool.py")}
        source = POOL.splitlines()
        done_line = next(i for i, l in enumerate(source) if "self.done += 1" in l) + 1
        # last occurrence: the one in reset(), not the __init__ initialiser
        reset_line = max(i for i, l in enumerate(source) if "self.jobs = 0" in l) + 1
        assert done_line in lines    # write after the with block ends
        assert reset_line in lines   # main-thread setter racing _run

    def test_locked_and_dominated_writes_clean(self, fixture_root):
        result = _run(fixture_root, select=["RPR103"])
        source = POOL.splitlines()
        flagged = {line for _, line in _rules_at(result, "pool.py")}
        for marker in ("self.jobs += 1", "self.total += 1", "self.total = 0"):
            line = next(i for i, l in enumerate(source) if marker in l) + 1
            assert line not in flagged, f"false positive on locked write {marker!r}"

    def test_thread_confined_class_clean(self, fixture_root):
        result = _run(fixture_root, select=["RPR103", "RPR104"])
        assert _rules_at(result, "confined.py") == []

    def test_torn_reads(self, fixture_root):
        result = _run(fixture_root, select=["RPR104"])
        rules = _rules_at(result, "torn.py")
        assert len(rules) == 1
        [(rule, line)] = rules
        source = TORN.splitlines()
        assert "self.count, self.total" in source[line - 1]
        assert "locked_snapshot" not in source[line - 3]


class TestSeeds:
    def test_unseeded_writes_flagged(self, fixture_root):
        result = _run(fixture_root, select=["RPR105"])
        lines = {line for _, line in _rules_at(result, "seeds.py")}
        source = SEEDS.splitlines()
        unseeded = next(i for i, l in enumerate(source)
                        if "data=_draw(rng)" in l) + 1
        legacy = next(i for i, l in enumerate(source)
                      if "np.random.normal" in l) + 1
        assert unseeded in lines
        assert legacy in lines
        assert len(lines) == 2   # the seeded write stays clean

    def test_provenance_table(self, fixture_root):
        result = _run(fixture_root)
        rows = [r for r in result.provenance if "seeds.py" in r["path"]]
        statuses = sorted(r["status"] for r in rows)
        assert statuses == ["seeded", "unseeded", "unseeded"]
        unseeded_rows = [r for r in rows if r["status"] == "unseeded"]
        assert all(r["source"] for r in unseeded_rows)


class TestSuppressionAndBaseline:
    def test_inline_suppression(self, tmp_path):
        pkg = _write_pkg(tmp_path, {
            "src/repro/__init__.py": "",
            "src/repro/jobs/seeds.py": SEEDS.replace(
                "np.savez(path, data=np.random.normal(size=4))",
                "np.savez(path, data=np.random.normal(size=4))  # repro: ignore[RPR105]",
            ),
        })
        result = _run(pkg, select=["RPR105"])
        assert len(result.findings) == 1
        assert len(result.suppressed) == 1

    def test_baseline_round_trip(self, fixture_root):
        first = _run(fixture_root)
        assert first.findings
        baseline = Baseline.from_findings(first.findings)
        second = _run(fixture_root, baseline=baseline)
        assert second.findings == []
        assert len(second.baselined) == len(first.findings)

    def test_unknown_select_raises(self, fixture_root):
        with pytest.raises(KeyError):
            _run(fixture_root, select=["RPR999"])


class TestCli:
    def test_exit_codes_and_json(self, fixture_root, capsys):
        rc = check_main([str(fixture_root / "src"), "--format", "json",
                         "--no-baseline"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["counts"]["findings"] == len(payload["findings"])
        assert {"nodes", "edges", "entries", "concurrent"} <= \
            set(payload["callgraph"])
        assert any(row["status"] == "unseeded" for row in payload["provenance"])

    def test_select_narrows(self, fixture_root, capsys):
        rc = check_main([str(fixture_root / "src"), "--format", "json",
                         "--no-baseline", "--select", "RPR102"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == {"RPR102"}

    def test_graph_export(self, fixture_root, tmp_path, capsys):
        dot_path = tmp_path / "callgraph.dot"
        check_main([str(fixture_root / "src"), "--no-baseline",
                    "--graph", str(dot_path)])
        capsys.readouterr()
        dot = dot_path.read_text()
        assert dot.startswith("digraph callgraph {")
        assert "Pool._run" in dot

    def test_write_baseline_then_clean(self, fixture_root, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        rc = check_main([str(fixture_root / "src"),
                         "--baseline", str(baseline_path), "--write-baseline"])
        assert rc == 0
        rc = check_main([str(fixture_root / "src"),
                         "--baseline", str(baseline_path)])
        capsys.readouterr()
        assert rc == 0

    def test_bad_rule_is_usage_error(self, fixture_root, capsys):
        rc = check_main([str(fixture_root / "src"), "--select", "NOPE"])
        capsys.readouterr()
        assert rc == 2

    def test_list_rules(self, capsys):
        assert check_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("RPR101", "RPR102", "RPR103", "RPR104", "RPR105"):
            assert rule in out


class TestRepoIsClean:
    def test_src_runs_clean(self):
        """Zero unbaselined whole-program findings across src/."""
        baseline = load_baseline(REPO_ROOT / "checks-baseline.json")
        result = check_paths([REPO_ROOT / "src"], select=ANALYSES,
                             baseline=baseline, root=REPO_ROOT)
        assert result.errors == []
        assert result.findings == [], "new findings:\n" + "\n".join(
            f.render() for f in result.findings
        )

    def test_cli_subcommand_wires_through(self):
        """`repro check --select` of the analyses exits 0 on the repo."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "check", "src",
             "--select", ",".join(ANALYSES), "--format", "json"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True
        assert payload["callgraph"]["concurrent"] > 0
        assert payload["counts"]["findings"] == 0
