#!/usr/bin/env python3
"""CI gate: an idle rank and an empty round stay cheap, and a batch pass
pays for rows, not objects.

Usage::

    PYTHONPATH=src python scripts/check_pass_shape.py

Builds n=512, p=8 and runs an empty, a one-query and a 64-query
``tree.run``.  Fails unless

* all three passes record the same comm-round label sequence (rounds are
  the data-independent observable — Theorem 3 — whatever the batch size,
  ``m = 0`` included),
* the one-query pass makes at most 5 ``run_phase`` dispatches (walk,
  forest and the three sort steps: replication rounds that move no store
  are recorded without dispatching pack/unpack),
* no ``random.Random`` is constructed during either pass (byte accounting
  for record-list rounds is plain arithmetic, once per routed list),
* the 64-query pass never calls the one-box ``to_rank_box`` (a batch's
  boxes are translated as two matrices),
* a warmed pass that replicates stores never calls
  ``RangeTree.space_leaves``/``iter_dim_trees`` (step 3 is sized from the
  count each element stores), and
* a ``dyn.run`` over >= 100 tombstones never calls ``Box.contains_point``
  (the dead and buffered scans are one array comparison per batch).

A later change that re-prices idle ranks, or puts a per-object Python loop
back on the batch path, fails here before it shows up as a slower
``single_query`` or ``batch_d3`` row.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager

MAX_ONE_QUERY_DISPATCHES = 5


@contextmanager
def counting(calls: dict, *targets):
    """Count calls to each ``(class, method name)`` into ``calls[name]``."""
    saved = []
    try:
        for cls, name in targets:
            real = cls.__dict__[name]
            key = f"{cls.__name__}.{name}"
            calls.setdefault(key, 0)

            def wrapper(*args, _real=real, _key=key, **kwargs):
                calls[_key] += 1
                return _real(*args, **kwargs)

            saved.append((cls, name, real))
            setattr(cls, name, wrapper)
        yield calls
    finally:
        for cls, name, real in saved:
            setattr(cls, name, real)


def object_loop_calls() -> dict:
    """Calls a batch pass must not make, counted on three small passes."""
    from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree
    from repro.geometry.box import Box
    from repro.geometry.rankspace import RankedPointSet, RankSpace
    from repro.query import count, report
    from repro.seq.range_tree import RangeTree
    from repro.workloads import make_points

    calls: dict = {}
    pts = make_points("uniform", 512, 2, seed=1)
    hot = [count(Box(((0.0, 0.2), (0.0, 1.0))))] * 64
    with DistributedRangeTree.build(pts, p=8) as tree:
        tree.run(hot)
        with counting(
            calls,
            (RangeTree, "space_leaves"),
            (RangeTree, "iter_dim_trees"),
            (RankSpace, "to_rank_box"),
            (RankedPointSet, "to_rank_box"),
        ):
            rs = tree.run(hot)
        moved = sum(
            s.volume for s in rs.metrics.comm_steps() if s.label.startswith("search:replicate")
        )
        if not moved:
            calls["(the hot-spot pass replicated nothing)"] = 1

    coords = make_points("uniform", 512, 2, seed=2).coords
    with DynamicDistributedRangeTree.build(coords, p=4, flush_threshold=64) as dyn:
        for pid in range(0, 240, 2):
            dyn.delete(pid)
        for c in coords[:20]:
            dyn.insert(c)
        if dyn.space_report()["tombstones"] < 100 or not dyn.buffered_count:
            calls["(the dynamic tree lost its tombstones or its buffer)"] = 1
        with counting(calls, (Box, "contains_point")):
            dyn.run([report(Box(((0.1, 0.6), (0.2, 0.9)))), count(Box(((0.0, 1.0), (0.0, 1.0))))])
    return calls


def main() -> int:
    from repro.dist import DistributedRangeTree
    from repro.geometry.box import Box
    from repro.query import aggregate, count, report
    from repro.workloads import make_points

    pts = make_points("uniform", 512, 2, seed=1)
    boxes = [
        Box(((0.01 * i, 0.35 + 0.01 * i), (0.005 * i, 0.5 + 0.005 * i)))
        for i in range(64)
    ]
    batch = [(count, report, aggregate)[i % 3](b) for i, b in enumerate(boxes)]

    constructed = []
    real_random = random.Random

    class CountingRandom(real_random):
        def __init__(self, *args, **kwargs):
            constructed.append(args)
            super().__init__(*args, **kwargs)

    with DistributedRangeTree.build(pts, p=8) as tree:
        tree.run(batch[:3])  # lazy lowering happens outside the measured passes
        random.Random = CountingRandom
        try:
            none = tree.run([]).metrics
            one = tree.run(batch[:1]).metrics
            full = tree.run(batch).metrics
        finally:
            random.Random = real_random

    failures = []
    none_rounds = [s.label for s in none.comm_steps()]
    one_rounds = [s.label for s in one.comm_steps()]
    full_rounds = [s.label for s in full.comm_steps()]
    if not none_rounds == one_rounds == full_rounds:
        failures.append(
            f"comm rounds differ with batch size:\n  m=0:  {none_rounds}\n"
            f"  m=1:  {one_rounds}\n  m=64: {full_rounds}"
        )
    dispatches = [s.label for s in one.compute_steps()]
    if len(dispatches) > MAX_ONE_QUERY_DISPATCHES:
        failures.append(
            f"one-query pass made {len(dispatches)} run_phase dispatches "
            f"(max {MAX_ONE_QUERY_DISPATCHES}): {dispatches}"
        )
    if constructed:
        failures.append(
            f"{len(constructed)} random.Random constructed during the passes"
        )
    object_calls = object_loop_calls()
    for name, n in object_calls.items():
        if n:
            failures.append(f"{name}: {n} calls on a batch pass (must be 0)")
    print(
        f"empty pass: {len(none_rounds)} rounds; "
        f"one-query pass: {len(one_rounds)} rounds, {len(dispatches)} dispatches; "
        f"64-query pass: {len(full_rounds)} rounds; "
        f"random.Random constructed: {len(constructed)}; "
        f"per-object calls: {object_calls}"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
