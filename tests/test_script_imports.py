"""Scripts under examples/ and benchmarks/ import only names repro still has.

Tier-1 never runs these scripts, so a renamed or deleted ``repro`` name
would otherwise break them silently.  Each file is parsed with ``ast``
(not executed) and every ``from repro.X import name`` / ``import
repro.X`` is resolved against the installed package.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted(
    path for folder in ("examples", "benchmarks")
    for path in (REPO_ROOT / folder).rglob("*.py")
)


def _missing_imports(path: Path) -> list[str]:
    missing = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            targets = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            targets = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        for module, name in targets:
            if module != "repro" and not module.startswith("repro."):
                continue
            where = f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
            try:
                mod = importlib.import_module(module)
            except ImportError:
                missing.append(f"{where}: no module {module}")
                continue
            if name is None or name == "*" or hasattr(mod, name):
                continue
            try:  # ``from repro.pkg import submodule``
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{where}: {module} has no {name}")
    return missing


def test_scripts_found():
    names = {p.relative_to(REPO_ROOT).as_posix() for p in SCRIPTS}
    assert "examples/quickstart.py" in names
    assert "benchmarks/ledger/ledger/train.py" in names


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[p.relative_to(REPO_ROOT).as_posix() for p in SCRIPTS]
)
def test_repro_imports_resolve(path):
    assert _missing_imports(path) == []
