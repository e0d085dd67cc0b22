"""Every third-party package the code imports is declared in pyproject.toml.

A fresh environment gets only what ``pyproject.toml`` declares (CI installs
``pip install -e ".[test]"``), so an undeclared import breaks ``import repro``
or test collection there while passing wherever the package happens to be
installed.  Import names are compared with distribution names after PEP 503
normalisation.  numpy is the only runtime dependency, and importing the
runtime entry points in a fresh interpreter must load nothing else.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")

ROOT = Path(__file__).resolve().parent.parent

#: Top-level packages of this repository (``oracle`` is the test-only
#: reference package under ``tests/``).
_LOCAL = {"repro", "oracle"}


def _normalize(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _declared(requirements) -> set:
    """Distribution names of PEP 508 requirement strings."""
    return {
        _normalize(re.match(r"[A-Za-z0-9][A-Za-z0-9._-]*", req).group())
        for req in requirements
    }


def _third_party_imports(root: Path) -> dict:
    """Distribution name -> first module under ``root`` that imports it."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top in sys.stdlib_module_names or top in _LOCAL:
                    continue
                found.setdefault(_normalize(top), str(path.relative_to(ROOT)))
    return found


@pytest.fixture(scope="module")
def project():
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)["project"]


def test_package_imports_are_runtime_dependencies(project):
    runtime = _declared(project["dependencies"])
    undeclared = {
        name: where
        for name, where in _third_party_imports(ROOT / "src" / "repro").items()
        if name not in runtime
    }
    assert not undeclared, f"not in [project].dependencies: {undeclared}"


def test_test_imports_are_declared(project):
    declared = _declared(project["dependencies"]) | _declared(
        project["optional-dependencies"]["test"]
    )
    undeclared = {
        name: where
        for name, where in _third_party_imports(ROOT / "tests").items()
        if name not in declared
    }
    assert not undeclared, f"not in [project].dependencies or the test extra: {undeclared}"


def _top_level_modules(code: str) -> set:
    """Top-level module names a fresh interpreter holds after running ``code``."""
    report = "import sys; print(*sorted({m.partition('.')[0] for m in sys.modules}))"
    result = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return set(result.stdout.split())


def test_runtime_entry_points_load_only_numpy():
    # The baseline is a bare interpreter in this environment, not the stdlib:
    # site hooks may preload third-party modules before any user code runs.
    baseline = _top_level_modules("pass")
    loaded = _top_level_modules(
        "import repro.cli, repro.service.server, repro.runtime.orchestrator"
    )
    added = {
        name
        for name in loaded - baseline
        if name not in sys.stdlib_module_names and not name.startswith("__")
    }
    assert "repro" in added
    assert added <= {"numpy", "repro"}, f"the runtime imports {sorted(added - {'numpy', 'repro'})}"
