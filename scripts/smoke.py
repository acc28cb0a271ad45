#!/usr/bin/env python3
"""CI smoke gate: import every ``repro.*`` module and exercise the CLI.

Usage::

    python scripts/smoke.py

Exit code 0 means the package is importable end-to-end and the CLI
answers ``--help``.  This is the cheap gate that would have caught the
seed's fatal regression (``repro/__init__.py`` exporting a module that
did not exist); the same checks run under pytest via
``tests/test_smoke_imports.py``.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"


def main() -> int:
    sys.path.insert(0, str(SRC_DIR))
    import repro

    names = ["repro"]
    for mod in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(mod.name)

    failures = []
    for name in sorted(set(names)):
        try:
            mod = importlib.import_module(name)
            for public in getattr(mod, "__all__", []):
                if not hasattr(mod, public):
                    failures.append(f"{name}: __all__ names missing {public!r}")
        except Exception as exc:  # noqa: BLE001 - report every import failure
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
    print(f"imported {len(names)} modules, {len(failures)} failures")

    # Exercise the unified query layer end to end: a tiny mixed-mode
    # batch over a plain-coordinate build must match the brute force.
    try:
        from repro import DistributedRangeTree
        from repro.query import QueryBatch, aggregate, count, report
        from repro.seq import bf_count, bf_report
        from repro.geometry import PointSet

        coords = [(0.1, 0.8), (0.4, 0.3), (0.6, 0.6), (0.9, 0.2)]
        tree = DistributedRangeTree.build(coords, p=2)
        box = ((0.0, 0.7), (0.0, 1.0))
        rs = tree.run(QueryBatch([count(box), report(box), aggregate(box)]))
        pts = PointSet(coords)
        from repro.query import as_box

        expected = [bf_count(pts, as_box(box)), bf_report(pts, as_box(box))]
        if rs.values()[:2] != expected or rs.value(2) != expected[0]:
            failures.append(f"repro.query mixed batch wrong: {rs.values()}")
        elif rs.metrics.phase_sequence().count("search") != 1:
            failures.append(
                f"repro.query did not run one search pass: {rs.metrics.phase_sequence()}"
            )
        else:
            print(f"repro.query mixed batch: OK ({rs.rounds} rounds)")
    except Exception as exc:  # noqa: BLE001 - the smoke gate reports, not raises
        failures.append(f"repro.query exercise: {type(exc).__name__}: {exc}")

    # Send object semigroup values across the process boundary: a tiny
    # ``backend="process"`` build under ``id_set()`` (an ObjectKernel
    # annotation), queried with counts, reports and a top-2 aggregate, must
    # match brute force — so a kernel or column that fails to pickle fails
    # here, before tier-1 runs.  Then a reannotate to top-2, the validator
    # (every rank's hat replica against rank 0's, read from the workers)
    # and one more checked batch: a driver reading a stale hat fails here.
    try:
        from repro import DistributedRangeTree
        from repro.dist import validate_tree
        from repro.geometry import PointSet
        from repro.query import QueryBatch, aggregate, as_box, count, report
        from repro.semigroup import id_set, top_k_ids
        from repro.seq import bf_aggregate, bf_count, bf_report

        coords = [(0.1, 0.8), (0.4, 0.3), (0.6, 0.6), (0.9, 0.2), (0.3, 0.5)]
        pts = PointSet(coords)
        boxes = [((0.0, 0.7), (0.0, 1.0)), ((0.2, 1.0), (0.1, 0.7))]
        queries = [q for b in boxes for q in (count(b), report(b), aggregate(b, top_k_ids(2)))]
        expected = []
        for b in map(as_box, boxes):
            expected += [bf_count(pts, b), bf_report(pts, b), bf_aggregate(pts, b, top_k_ids(2))]
        with DistributedRangeTree.build(coords, p=2, backend="process", semigroup=id_set()) as tree:
            got = tree.run(QueryBatch(queries)).values()
            tree.reannotate(top_k_ids(2))
            check = validate_tree(tree)
            again = tree.run(QueryBatch(queries)).values()
        if got != expected:
            failures.append(f"process backend under id_set diverged: {got} != {expected}")
        elif not check.ok:
            failures.append(f"process backend after reannotate: {check.summary()}")
        elif again != expected:
            failures.append(f"process backend after reannotate diverged: {again} != {expected}")
        else:
            print("object semigroup over the process backend, then a reannotate: OK")
    except Exception as exc:  # noqa: BLE001 - the smoke gate reports, not raises
        failures.append(f"process backend under id_set: {type(exc).__name__}: {exc}")

    # Exercise the serve layer: two concurrent in-process clients against
    # a tiny tree must coalesce into batches and answer exactly as a
    # direct run would.
    try:
        import asyncio

        from repro import DistributedRangeTree
        from repro.query import QueryBatch, count, report
        from repro.serve import FlushPolicy, QueryService

        coords = [(0.1, 0.8), (0.4, 0.3), (0.6, 0.6), (0.9, 0.2)]
        box = ((0.0, 0.7), (0.0, 1.0))
        queries = [count(box), report(box)]
        with DistributedRangeTree.build(coords, p=2) as tree:
            expected = tree.run(QueryBatch(queries)).values()

            async def serve_two_clients():
                policy = FlushPolicy(max_batch=2)
                async with QueryService(tree, policy) as service:
                    resps = await asyncio.gather(
                        *(service.query(q) for q in queries)
                    )
                    return [r.value for r in resps], service.metrics

            got, metrics = asyncio.run(serve_two_clients())
        if got != expected:
            failures.append(f"repro.serve answers diverged: {got} != {expected}")
        elif metrics.queries != 2:
            failures.append(f"repro.serve lost queries: {metrics.summary()}")
        else:
            print(
                f"repro.serve 2-client smoke: OK "
                f"({metrics.batches} batch(es), flushes {metrics.flushes})"
            )
    except Exception as exc:  # noqa: BLE001 - the smoke gate reports, not raises
        failures.append(f"repro.serve exercise: {type(exc).__name__}: {exc}")

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        failures.append(f"python -m repro --help exited {proc.returncode}: {proc.stderr}")
    else:
        print("python -m repro --help: OK")

    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
