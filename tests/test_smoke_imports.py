"""Import-time smoke gate.

The seed of this repository shipped exporting ``repro.dist`` without the
package existing, so *every* test failed at collection.  This module
makes that class of regression impossible to land silently: every
``repro.*`` module must import cleanly, the public ``__all__`` names
must resolve, and the CLI entry point must answer ``--help`` in a fresh
interpreter.  Also runnable outside pytest via ``python scripts/smoke.py``.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def all_module_names() -> list[str]:
    names = ["repro"]
    for mod in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(mod.name)
    return sorted(set(names))


@pytest.mark.parametrize("name", all_module_names())
def test_module_imports(name: str):
    importlib.import_module(name)


@pytest.mark.parametrize("name", all_module_names())
def test_public_names_resolve(name: str):
    """Every name a module exports in __all__ must actually exist."""
    mod = importlib.import_module(name)
    for public in getattr(mod, "__all__", []):
        assert hasattr(mod, public), f"{name}.__all__ names missing {public!r}"


def test_package_exports_match_dist():
    """The top-level facade import that broke the seed stays importable."""
    assert repro.DistributedRangeTree is importlib.import_module(
        "repro.dist"
    ).DistributedRangeTree


def test_cli_help_in_fresh_interpreter():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "repro-range-search" in proc.stdout
    for sub in ("experiments", "query", "demo"):
        assert sub in proc.stdout


#: What the tests keep as references and the package must not ship.
TEST_REFERENCES = {"RangeTree", "DimTree", "CanonicalSelection", "rank_bounds"}


def test_references_live_beside_the_tests():
    """The object range tree, its selections, ``rank_bounds`` and the
    per-query hat walk are ``tests.helpers``' own: no ``repro`` module
    defines or exports one, and importing every module of the package in
    a fresh interpreter loads no ``tests`` module."""
    from repro.dist.hat import Hat

    assert not hasattr(Hat, "walk")
    for name in all_module_names():
        mod = importlib.import_module(name)
        assert not TEST_REFERENCES & {*vars(mod), *getattr(mod, "__all__", ())}, name
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    code = (
        "import importlib, pkgutil, sys, repro\n"
        "for m in pkgutil.walk_packages(repro.__path__, prefix='repro.'):\n"
        "    importlib.import_module(m.name)\n"
        "print(sorted(m for m in sys.modules if m.startswith('tests')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=Path(SRC_DIR).parent,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


#: The environment variables the package reads: the fault plan and the
#: process backend's two deployment settings.
ENVIRONMENT = {"REPRO_FAULT_PLAN", "REPRO_WORKER_TIMEOUT_S", "REPRO_WORKER_RECOVERY"}


def test_the_package_reads_only_its_known_environment():
    """Every ``REPRO_*`` name in the package source is one of
    :data:`ENVIRONMENT`: a new environment setting is a new option, and
    a removed one leaves no reader behind."""
    names = {
        name
        for path in Path(SRC_DIR, "repro").rglob("*.py")
        for name in re.findall(r"\bREPRO_[A-Z0-9_]+", path.read_text())
    }
    assert names == ENVIRONMENT
