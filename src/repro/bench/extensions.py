"""Experiments D1, DY1, SQ1: the paper's extension points.

D1  — the Section 1 footnote: invertible aggregates via weighted dominance
      counting, compared against the range tree pipeline.
DY1 — the Section 6 open problem (static structure): sequential
      dynamization by the logarithmic method (the paper's reference [4]).
SQ1 — the Section 6 open problem (single-query parallelism): what the
      existing machinery gives a lone query.
"""

from __future__ import annotations

from ..dist import DistributedRangeTree
from ..geometry import Box
from ..semigroup.group import count_group
from ..seq import DominanceRangeIndex, DynamicRangeTree, SequentialRangeTree, bf_count
from ..workloads import selectivity_queries, uniform_points
from .tables import Table

__all__ = ["run_d1", "run_dy1", "run_sq1"]


def run_d1(d: int = 2) -> Table:
    """Invertible aggregates: dominance counting vs the range tree."""
    t = Table(
        f"D1 — dominance-counting pipeline vs range tree (d={d}, m=200, sel=1%)",
        ["n", "dominance records", "range tree records", "answers agree"],
    )
    g = count_group()
    for n in (256, 1024, 4096):
        pts = uniform_points(n, d, seed=30)
        qs = selectivity_queries(200, d, seed=31, selectivity=0.01)
        idx = DominanceRangeIndex(pts, g)
        rt = SequentialRangeTree(pts)
        agree = idx.batch_count(qs) == [rt.count(q) for q in qs]
        t.add_row(n, len(idx.weights), rt.forest.size_records, "yes" if agree else "NO")
    t.add_note("the footnote's alternative: no O(n log^{d-1} n) structure, but offline-only")
    return t


def run_dy1(d: int = 2) -> Table:
    """Dynamization by the logarithmic method: amortised insert cost."""
    import math

    t = Table(
        f"DY1 — dynamized range tree (d={d}): amortised rebuild work",
        ["n inserts", "rebuilt points total", "bound n·(log2 n + 1)", "buckets", "query ok"],
    )
    for n in (64, 256, 1024):
        dt = DynamicRangeTree(d)
        pts = uniform_points(n, d, seed=32)
        for i in range(n):
            dt.insert(tuple(pts.coords[i]))
        bound = n * (int(math.log2(n)) + 1)
        box = Box.full(d, 0.25, 0.75)
        ok = dt.count(box) == bf_count(pts, box)
        t.add_row(n, dt.rebuild_points_total, bound, dt.bucket_sizes, "yes" if ok else "NO")
    t.add_note("each point is rebuilt at most log2(n)+1 times (Bentley's logarithmic method)")
    return t


def run_sq1(n: int = 1024, p: int = 8) -> Table:
    """Single-query parallelism: how one query's work spreads over p."""
    t = Table(
        f"SQ1 — single query on p={p} processors (n={n}, d=2)",
        ["query shape", "subqueries", "procs touched", "rounds", "count ok"],
    )
    from ..query import count

    pts = uniform_points(n, 2, seed=33)
    tree = DistributedRangeTree.build(pts, p=p)
    shapes = [
        ("small cube", Box([(0.45, 0.55), (0.45, 0.55)])),
        ("thin x-slab", Box([(0.0, 1.0), (0.48, 0.52)])),
        ("thin y-slab", Box([(0.48, 0.52), (0.0, 1.0)])),
        ("half domain", Box([(0.0, 0.5), (0.0, 1.0)])),
    ]
    for name, q in shapes:
        tree.reset_metrics()
        out = tree.search([q])
        touched = sum(1 for c in out.subqueries_per_proc if c > 0)
        ok = tree.run(count(q)).value(0) == bf_count(pts, q)
        t.add_row(name, out.total_subqueries, touched, tree.metrics.rounds, "yes" if ok else "NO")
    t.add_note("Section 6 leaves single-query speedup open; the batched machinery still")
    t.add_note("fans one query's forest continuations across owners (no replication needed)")
    return t
