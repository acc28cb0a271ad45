#!/usr/bin/env python3
"""CI gate: an idle rank and an empty round stay cheap.

Usage::

    PYTHONPATH=src python scripts/check_pass_shape.py

Builds n=512, p=8 and runs a one-query and a 64-query ``tree.run``.  Fails
unless

* both passes record the same comm-round label sequence (rounds are the
  data-independent observable — Theorem 3 — whatever the batch size),
* the one-query pass makes at most 5 ``run_phase`` dispatches (walk,
  forest and the three sort steps: replication rounds that move no store
  are recorded without dispatching pack/unpack), and
* no ``random.Random`` is constructed during either pass (byte accounting
  for record-list rounds is plain arithmetic, once per routed list).

A later change that re-prices idle ranks fails here before it shows up as
a slower ``single_query`` row.
"""

from __future__ import annotations

import random
import sys

MAX_ONE_QUERY_DISPATCHES = 5


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
            one = tree.run(batch[:1]).metrics
            full = tree.run(batch).metrics
        finally:
            random.Random = real_random

    failures = []
    one_rounds = [s.label for s in one.comm_steps()]
    full_rounds = [s.label for s in full.comm_steps()]
    if one_rounds != full_rounds:
        failures.append(
            f"comm rounds differ with batch size:\n  m=1:  {one_rounds}\n  m=64: {full_rounds}"
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
    print(
        f"one-query pass: {len(one_rounds)} rounds, {len(dispatches)} dispatches; "
        f"64-query pass: {len(full_rounds)} rounds; "
        f"random.Random constructed: {len(constructed)}"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
