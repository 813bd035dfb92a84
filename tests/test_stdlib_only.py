"""The simulator package imports nothing outside the standard library, and
parses as the oldest Python that pyproject.toml's requires-python admits."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vcellsim"
MODULES = sorted(PACKAGE.glob("*.py"))
OLDEST_PYTHON = (3, 10)  # requires-python = ">=3.10"


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_stdlib(path):
    foreign = [
        name for name in _absolute_imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert not foreign, f"{path.name} imports non-stdlib modules {foreign}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST_PYTHON)


def test_binder_knows_nothing_of_the_radio():
    # the registry and RB ledger import only the package's errors
    tree = ast.parse((PACKAGE / "binder.py").read_text(encoding="utf-8"))
    relative = {
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level
    }
    assert relative == {"errors"}


def _loaded_by_import(modules, unwanted):
    """Which of `unwanted` a fresh interpreter has loaded once it imports `modules`."""
    code = f"import sys, {', '.join(modules)}; print(sorted({set(unwanted)!r} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_the_cli_and_scenario_load_no_hashlib():
    # hashlib loads OpenSSL, which costs about 1 MiB of peak RSS per run; the
    # trace cache's key uses zlib's checksums, which cost nothing measurable
    unwanted = ["hashlib", "_hashlib"]
    assert _loaded_by_import(["vcellsim.cli", "vcellsim.scenario"], unwanted) == "[]\n"


def test_the_cli_loads_no_process_pool():
    # only `run --jobs` above 1 needs one; loading it cost every run about
    # 15 ms of import and 1.4 MiB of peak RSS
    unwanted = ["concurrent.futures.process", "multiprocessing"]
    assert _loaded_by_import(["vcellsim.cli"], unwanted) == "[]\n"
