"""A process imports only the modules its path runs.

Every package ``__init__`` names its public API lazily (PEP 562), so a
serve daemon or a library user of ``repro.dist`` never compiles the
baselines, the dynamization, the validator or the load generator.  Each
check runs in a fresh interpreter: this one has imported everything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

PACKAGES = sorted(
    f"repro.{p.parent.name}" for p in Path(SRC_DIR, "repro").glob("*/__init__.py")
) + ["repro"]

#: What the serve path (``perf/serve_child.py``'s imports) must not load.
NOT_ON_THE_SERVE_PATH = {
    *(f"repro.seq.{m}" for m in ("kdtree", "layered", "dominance", "dynamic", "bruteforce",
                                 "segment_tree", "range_tree")),
    "repro.dist.dynamic",
    "repro.dist.validate",
    "repro.cgm.process",
    "repro.cgm.trace",
    "repro.cgm.cost",
    "repro.faults.plan",
    "repro.serve.client",
    "repro.serve.loadgen",
    "repro.workloads",
    "repro.bench",
    "repro.cli",
}


def fresh(code: str):
    """Run ``code`` in a new interpreter; return what it prints as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_the_serve_path_loads_no_module_it_never_runs():
    loaded = fresh(
        "import json, sys\n"
        "from repro.dist import DistributedRangeTree\n"
        "from repro.semigroup import sum_of_dim\n"
        "from repro.serve import FlushPolicy, QueryService, start_tcp_server\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    assert "repro.dist.search" in loaded and "repro.serve.server" in loaded
    assert not NOT_ON_THE_SERVE_PATH & set(loaded)


def test_every_exported_name_is_listed_then_resolves():
    """Before any access, ``dir()`` lists every ``__all__`` name; each
    then resolves, and to the object its defining module holds."""
    problems = fresh(
        "import importlib, json\n"
        f"packages = {PACKAGES!r}\n"
        "problems = []\n"
        "for name in packages:\n"
        "    pkg = importlib.import_module(name)\n"
        "    listed = set(dir(pkg))\n"
        "    for public in pkg.__all__:\n"
        "        if public not in listed:\n"
        "            problems.append(f'{name}.{public} not in dir()')\n"
        "        value = getattr(pkg, public)\n"
        "        home = getattr(value, '__module__', None)\n"
        "        if home and home.startswith('repro') and getattr(\n"
        "                importlib.import_module(home), public, value) is not value:\n"
        "            problems.append(f'{name}.{public} is not {home}.{public}')\n"
        "    if hasattr(pkg, 'no_such_name'):\n"
        "        problems.append(f'{name}.no_such_name resolves')\n"
        "print(json.dumps(problems))\n"
    )
    assert problems == []


def test_bootstrap_modules_register_every_phase():
    """A spawned worker imports only ``BOOTSTRAP_MODULES``: that alone
    must register the phases that importing the whole package does."""
    code = (
        "import importlib, json, pkgutil, repro\n"
        "from repro.cgm.phases import BOOTSTRAP_MODULES, registered_phases\n"
        "for m in {}:\n"
        "    importlib.import_module(m)\n"
        "print(json.dumps(registered_phases()))\n"
    )
    boot = fresh(code.format("BOOTSTRAP_MODULES"))
    everything = fresh(
        code.format("[m.name for m in pkgutil.walk_packages(repro.__path__, prefix='repro.')]")
    )
    assert boot == everything
    assert any(p.startswith("cgm.sort.") for p in boot)
    assert any(p.startswith("dist.search.") for p in boot)


def test_spawned_workers_build_and_answer_a_mixed_pass():
    """A process-backend build and a count/report/aggregate pass, workers
    started by ``spawn`` from a driver that imported only the lazy top
    level, answer as brute force does."""
    verdict = fresh(
        "import json, multiprocessing\n"
        "from repro import DistributedRangeTree, Machine, bf_aggregate, bf_count, bf_report\n"
        "from repro import aggregate, count, report, sum_of_dim\n"
        "from repro.workloads import selectivity_queries, uniform_points\n"
        "pts, qs = uniform_points(256, 2, seed=3), selectivity_queries(12, 2, seed=4)\n"
        "with Machine(4, backend='process') as mach:\n"
        "    mach.backend._mp_ctx = multiprocessing.get_context('spawn')\n"
        "    with DistributedRangeTree.build(pts, machine=mach, semigroup=sum_of_dim(0)) as tree:\n"
        "        got = tree.run([(count, report, aggregate)[i % 3](q) for i, q in enumerate(qs)])\n"
        "want = [(bf_count(pts, q), bf_report(pts, q), bf_aggregate(pts, q, sum_of_dim(0)))[i % 3]\n"
        "        for i, q in enumerate(qs)]\n"
        "ok = [abs(g - w) < 1e-9 if i % 3 == 2 else g == w\n"
        "      for i, (g, w) in enumerate(zip(got.values(), want))]\n"
        "print(json.dumps(ok))\n"
    )
    assert verdict == [True] * 12
