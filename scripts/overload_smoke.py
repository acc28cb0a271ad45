#!/usr/bin/env python3
"""CI overload smoke: offered load far above the admission cap.

Usage::

    python scripts/overload_smoke.py

Drives the serve loadgen with a closed-loop population much
larger than ``max_inflight`` and asserts the degradation contract:

- the service really sheds (``Overloaded`` errors observed),
- every shed is typed ``Overloaded`` — nothing leaks as a raw failure,
- every *answered* query matches direct execution (sheds never corrupt),
- answered-query tail latency stays bounded (the backlog cap works),
- a second run with retries absorbs the whole error budget, once on
  each transport (in-process and TCP), so both run the client's one
  backoff rule.

Exit code 0 means the serve layer degrades instead of degrading *you*.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

P99_BUDGET_MS = 2000.0  # generous: CI boxes are slow, hangs are not


def main() -> int:
    from repro.dist import DistributedRangeTree
    from repro.serve.loadgen import run_loadgen
    from repro.workloads import make_points

    points = make_points("uniform", 512, 2, seed=11)
    failures = []
    with DistributedRangeTree.build(points, p=4) as tree:
        shed_row = run_loadgen(
            tree,
            m=96,
            seed=7,
            clients=32,
            arrival="closed",
            max_inflight=2,
            transport="inproc",
        )
        retry_rows = [
            run_loadgen(
                tree,
                m=48,
                seed=7,
                clients=16,
                arrival="closed",
                max_inflight=2,
                retries=8,
                transport=transport,
            )
            for transport in ("inproc", "tcp")
        ]

    def check(label: str, ok: bool, detail: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {detail}")
        if not ok:
            failures.append(label)

    check(
        "shed happened",
        shed_row["errors"] > 0,
        f"{shed_row['errors']}/{shed_row['m']} shed at cap "
        f"{shed_row['max_inflight']}",
    )
    check(
        "sheds are typed",
        set(shed_row["error_types"]) <= {"Overloaded"},
        f"error_types={shed_row['error_types']}",
    )
    check(
        "answers stay correct",
        shed_row["answers_match_direct"] is True,
        "every answered query matches direct execution",
    )
    check(
        "tail latency bounded",
        shed_row["p99_ms"] <= P99_BUDGET_MS,
        f"p99 {shed_row['p99_ms']}ms <= {P99_BUDGET_MS}ms",
    )
    for retry_row in retry_rows:
        check(
            f"retries absorb the budget over {retry_row['transport']}",
            retry_row["errors"] == 0 and retry_row["answers_match_direct"] is True,
            f"errors={retry_row['errors']} with retries={retry_row['retries']}",
        )

    if failures:
        print(f"\noverload smoke FAILED: {failures}", file=sys.stderr)
        return 1
    print("\noverload smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
