"""S1: Theorem 3 — m = n queries in O(s·log n / p) work, O(1) rounds.

Plus a micro-benchmark of one full batch_count for wall-clock tracking.
"""

from __future__ import annotations

from repro.bench import run_s1
from repro.dist import DistributedRangeTree
from repro.query import count
from repro.workloads import selectivity_queries, uniform_points

from conftest import run_once, show


def test_search_scaling(benchmark):
    table = run_once(benchmark, run_s1)
    show(table)
    rounds = set(table.column("rounds"))
    assert len(rounds) == 1, f"rounds varied with n: {rounds}"
    ratios = table.column("work/(s·log n/p)")
    assert max(ratios) <= 3 * min(ratios), f"work not Θ(s log n / p): {ratios}"
    # per-processor subquery load stays within 2x of |Q'|/p
    for row in table.rows:
        assert row[6] <= 2 * row[7] + 8


def test_batch_count_wallclock_n1024(benchmark):
    pts = uniform_points(1024, 2, seed=0)
    tree = DistributedRangeTree.build(pts, p=8)
    qs = selectivity_queries(1024, 2, seed=1, selectivity=0.01)
    benchmark(lambda: tree.run([count(q) for q in qs]).values())
