"""Experiments S1, A1, R1, M1: batched search and the output modes
(Theorems 3 and 5, plus the hot-spot load-balancing stress)."""

from __future__ import annotations

import math

from .._util import ilog2
from ..dist import DistributedRangeTree
from ..query import report
from ..workloads import hotspot_queries, selectivity_queries, uniform_points
from .tables import Table

__all__ = ["run_s1", "run_a1", "run_r1", "run_m1"]


def _s(n: int, d: int) -> int:
    return n * (ilog2(n) + 1) ** (d - 1)


def run_s1(d: int = 2, p: int = 8) -> Table:
    """Theorem 3: m = n queries in O(s log n / p) work and O(1) rounds."""
    t = Table(
        f"S1 — batched search scaling (d={d}, p={p}, m=n, sel=1%)",
        ["n", "m", "max work", "work/(s·log n/p)", "rounds", "max h", "max subq/proc", "Q'/p"],
    )
    for n in (256, 512, 1024, 2048):
        tree = DistributedRangeTree.build(uniform_points(n, d, seed=5), p=p)
        tree.reset_metrics()
        qs = selectivity_queries(n, d, seed=6, selectivity=0.01)
        out = tree.search(qs)
        m = tree.metrics
        bound = _s(n, d) * (ilog2(n) + 1) // p
        qp = max(1, -(-out.total_subqueries // p))
        t.add_row(
            n,
            len(qs),
            m.max_work,
            round(m.max_work / bound, 3),
            m.rounds,
            m.max_h,
            max(out.subqueries_per_proc, default=0),
            qp,
        )
    t.add_note("'work/(s·log n/p)' should stay roughly flat; rounds identical across n")
    t.add_note("'max subq/proc' should track |Q'|/p (the step-4 balance guarantee)")
    return t


def run_a1(n: int = 1024, d: int = 2, p: int = 8) -> Table:
    """Theorem 5 (associative mode): counts and sums at O(1) extra rounds."""
    from ..query import aggregate, count
    from ..semigroup import sum_of_dim
    from ..seq import SequentialRangeTree

    t = Table(
        f"A1 — associative-function mode (n={n}, d={d}, p={p}, m=n)",
        ["mode", "rounds", "max work", "answers checked"],
    )
    pts = uniform_points(n, d, seed=7)
    qs = selectivity_queries(n, d, seed=8, selectivity=0.01)

    def same(a, b) -> bool:
        if isinstance(a, float) or isinstance(b, float):
            # distributed and sequential folds sum in different orders
            return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
        return a == b

    for mode, sg in (("count", None), ("sum[x0]", sum_of_dim(0))):
        kw = {} if sg is None else {"semigroup": sg}
        tree = DistributedRangeTree.build(pts, p=p, **kw)
        tree.reset_metrics()
        batch = [count(q) for q in qs] if sg is None else [aggregate(q) for q in qs]
        got = tree.run(batch).values()
        # sequential comparator on a subsample
        seq = SequentialRangeTree(pts, semigroup=sg) if sg else SequentialRangeTree(pts)
        ok = all(
            same(got[i], seq.count(q) if sg is None else seq.aggregate(q))
            for i, q in list(enumerate(qs))[:: max(1, len(qs) // 32)]
        )
        t.add_row(mode, tree.metrics.rounds, tree.metrics.max_work, "yes" if ok else "NO")
    t.add_note("both modes share the Search round budget plus one round home for the partial ⊕ values")
    return t


def run_r1(n: int = 1024, d: int = 2, p: int = 8) -> Table:
    """Theorem 5 (report mode): per-processor output <= ceil(k/p).

    The demux balances the batch's ``(qid, pid)`` output pairs in the
    ``query:demux:pairs`` round, so what each rank receives there *is*
    the per-processor output Theorem 5 bounds.
    """
    t = Table(
        f"R1 — report mode balance (n={n}, d={d}, p={p})",
        ["selectivity", "m", "k (pairs)", "ceil(k/p)", "max pairs/proc", "balanced", "rounds"],
    )
    pts = uniform_points(n, d, seed=9)
    tree = DistributedRangeTree.build(pts, p=p)
    for sel, m in ((0.001, n), (0.01, n), (0.05, n // 2), (0.2, n // 8)):
        qs = selectivity_queries(m, d, seed=10, selectivity=sel)
        tree.reset_metrics()
        rs = tree.run([report(q) for q in qs])
        sizes = next(
            s.received
            for s in rs.metrics.comm_steps()
            if s.label == "query:demux:pairs"
        )
        k = sum(sizes)
        cap = -(-k // p) if k else 0
        t.add_row(
            sel,
            m,
            k,
            cap,
            max(sizes),
            "yes" if max(sizes) <= max(1, cap) else "NO",
            tree.metrics.rounds,
        )
    t.add_note("the k/p term: every processor ends with at most ceil(k/p) output pairs")
    return t


def run_m1(n: int = 1024, d: int = 2, p: int = 8) -> Table:
    """Hot-spot stress: demand-proportional replication keeps load flat."""
    t = Table(
        f"M1 — hot-spot load balancing (n={n}, d={d}, p={p}, m=n)",
        ["workload", "strategy", "max c_j", "Σ c_j", "max subq/proc", "Q'/p", "rounds", "max h"],
    )
    pts = uniform_points(n, d, seed=11)
    tree = DistributedRangeTree.build(pts, p=p)
    workloads = [
        ("uniform 1%", selectivity_queries(n, d, seed=12, selectivity=0.01)),
        ("hotspot", hotspot_queries(n, d, seed=13, half_width=0.03)),
    ]
    for wname, qs in workloads:
        for strategy in ("direct", "doubling"):
            tree.reset_metrics()
            out = tree.search(qs, replication=strategy)
            qp = max(1, -(-out.total_subqueries // p))
            t.add_row(
                wname,
                strategy,
                max(out.copy_counts),
                sum(out.copy_counts),
                max(out.subqueries_per_proc, default=0),
                qp,
                tree.metrics.rounds,
                tree.metrics.max_h,
            )
    t.add_note("hotspot demand forces c_j > 1; subquery load per proc must stay ~|Q'|/p")
    t.add_note("direct: 1 replication round but h spikes; doubling: log(max c_j) rounds, h capped")
    return t
