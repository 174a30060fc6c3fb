"""What a cold start imports: the DES paths load no scipy, and each CLI
command loads only the scipy its solvers call.

Each import check runs in a fresh interpreter, since this test process
has long since imported everything.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.analysis
import repro.core
import repro.markov
import repro.runtime

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=True
    )


def _modules_after_import(module: str) -> set[str]:
    code = f"import sys, {module}; print('\\n'.join(sys.modules))"
    return set(_run(["-c", code]).stdout.split())


def _scipy(modules: set[str]) -> list[str]:
    return sorted(m for m in modules if m == "scipy" or m.startswith("scipy."))


@pytest.mark.parametrize(
    "module", ["repro.chaos", "repro.router.router", "repro.traffic.generators"]
)
def test_des_imports_load_no_scipy(module):
    assert _scipy(_modules_after_import(module)) == []


def test_cli_import_loads_no_stats_or_integrate():
    loaded = _modules_after_import("repro.cli")
    assert "scipy.stats" not in loaded
    assert "scipy.integrate" not in loaded


def test_fig8_command_loads_no_scipy():
    # -X importtime logs every module the command imports to stderr.
    proc = _run(["-X", "importtime", "-m", "repro", "fig8"])
    assert "X_faulty" in proc.stdout
    imported = {
        line.rsplit("|", 1)[-1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "repro.cli" in imported
    assert _scipy(imported) == []


def _imports_scipy_stats(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith("scipy.stats") for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.stats"):
                return True
            if node.module == "scipy" and any(a.name == "stats" for a in node.names):
                return True
    return False


def test_no_module_in_src_imports_scipy_stats():
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "repro").rglob("*.py"))
        if _imports_scipy_stats(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert offenders == []


@pytest.mark.parametrize(
    "package", [repro, repro.core, repro.markov, repro.runtime, repro.analysis]
)
def test_lazy_exports_resolve(package):
    for name in package.__all__:
        assert getattr(package, name) is not None
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError):
        package.no_such_export  # noqa: B018


def test_star_import_and_from_import():
    namespace: dict = {}
    exec("from repro.markov import *", namespace)
    assert set(repro.markov.__all__) <= set(namespace)
    from repro.core import DRAConfig
    from repro.core.parameters import DRAConfig as defined

    assert DRAConfig is defined
