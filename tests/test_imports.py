"""Import hygiene: the package runs with its runtime dependency alone.

``pyproject.toml`` declares ``numpy`` as the only runtime dependency;
``scipy``, ``networkx`` and ``hypothesis`` are dev extras used by tests.
Each check runs in a fresh interpreter, so modules this test process has
already imported cannot hide a missing dependency.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Dev-only packages that nothing under ``src/`` may need at run time.
DEV_ONLY = ("scipy", "networkx", "hypothesis")

#: Prepended to a child script: a meta-path finder that makes every
#: dev-only package unimportable, as on a numpy-only install.
BLOCKER = textwrap.dedent(
    f"""
    import sys
    from importlib.abc import MetaPathFinder

    class _BlockDevOnly(MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name.partition(".")[0] in {DEV_ONLY!r}:
                raise ModuleNotFoundError(f"No module named {{name!r}} (blocked)", name=name)
            return None

    sys.meta_path.insert(0, _BlockDevOnly())
    """
)


def run_child(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def run_cli_blocked(*args: str) -> subprocess.CompletedProcess:
    """``python -m repro ARGS`` with the dev-only packages blocked."""
    return run_child(
        BLOCKER
        + textwrap.dedent(
            f"""
            import runpy
            sys.argv = ["repro", *{list(args)!r}]
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
            """
        )
    )


def test_cli_imports_only_stdlib_numpy_and_repro():
    # The snapshot is the bare interpreter's modules, so whatever site
    # start-up imported (``.pth`` hooks) does not count.
    proc = run_child(
        textwrap.dedent(
            """
            import sys
            bare = set(sys.modules)
            import repro.cli
            new = {name.partition(".")[0] for name in set(sys.modules) - bare}
            allowed = set(sys.stdlib_module_names) | {"__mp_main__", "numpy", "repro"}
            print(" ".join(sorted(new - allowed)))
            """
        )
    )
    assert proc.stdout.split() == []


def test_every_module_imports_without_dev_packages():
    proc = run_child(
        BLOCKER
        + textwrap.dedent(
            """
            import importlib
            import pkgutil
            import repro

            def fail(name):
                raise ImportError(f"cannot import {name}")

            names = []
            for info in pkgutil.walk_packages(repro.__path__, "repro.", onerror=fail):
                if info.name != "repro.__main__":  # runs the CLI on import
                    importlib.import_module(info.name)
                    names.append(info.name)
            print(len(names))
            """
        )
    )
    assert int(proc.stdout) > 50


def test_designs_runs_without_dev_packages():
    proc = run_cli_blocked("designs")
    assert "dxbar_dor" in proc.stdout


def test_run_json_runs_without_dev_packages():
    proc = run_cli_blocked(
        "run", "--k", "4", "--load", "0.1", "--warmup", "20",
        "--measure", "100", "--drain", "100", "--json",
    )
    assert '"ejected_flits"' in proc.stdout
