"""Experiments B1, B2, X1: sequential baselines and the CGM sort primitive."""

from __future__ import annotations

import random

import numpy as np

from .._util import ilog2
from ..cgm import Machine, RecordBatch, sample_sort_cols, sorted_and_balanced
from ..seq import KDTree, LayeredSequentialRangeTree, SequentialRangeTree
from ..workloads import selectivity_queries, uniform_points
from .tables import Table

__all__ = ["run_b1", "run_b2", "run_x1"]


def run_b1(d: int = 2) -> Table:
    """Section 1 baselines: range tree O(log^d n) vs k-D tree O(d n^{1-1/d})
    vs brute force O(dn) — query-cost shape comparison in nodes visited."""
    t = Table(
        f"B1 — sequential baselines (d={d}, 200 queries, sel=1%)",
        ["n", "RT visits/q", "kD visits/q"],
    )
    for n in (256, 1024, 4096):
        pts = uniform_points(n, d, seed=14)
        qs = selectivity_queries(200, d, seed=15, selectivity=0.01)
        rt = SequentialRangeTree(pts)
        kd = KDTree(pts)
        for q in qs:
            rt.count(q)
            kd.count(q)
        rt_visits = rt.stats.nodes_visited / len(qs)
        kd_visits = kd.stats.nodes_visited / len(qs)
        t.add_row(n, round(rt_visits, 1), round(kd_visits, 1))
    t.add_note("shape claim: range-tree visits grow polylogarithmically, k-D tree visits polynomially")
    t.add_note("brute force scans all n points per query")
    return t


def run_b2(d: int = 2) -> Table:
    """Section 1: the layered range tree 'saves a factor of log n'."""
    t = Table(
        f"B2 — layered vs plain range tree (d={d}, 200 queries, sel=1%)",
        ["n", "log2 n", "plain visits/q", "layered visits/q", "ratio", "theory (~log n / c)"],
    )
    for n in (256, 1024, 4096):
        pts = uniform_points(n, d, seed=16)
        qs = selectivity_queries(200, d, seed=17, selectivity=0.01)
        plain = SequentialRangeTree(pts)
        layered = LayeredSequentialRangeTree(pts)
        for q in qs:
            assert plain.count(q) == layered.count(q)
        pv = plain.stats.nodes_visited / len(qs)
        lv = layered.stats.nodes_visited / len(qs)
        t.add_row(n, ilog2(n), round(pv, 1), round(lv, 1), round(pv / lv, 2), ilog2(n))
    t.add_note("the visit ratio must grow with log n (the saved factor)")
    return t


def run_x1(p: int = 8) -> Table:
    """The Model: CGM sample sort runs in O(1) rounds with h = O(N/p)."""
    t = Table(
        f"X1 — CGM sort primitive (p={p})",
        ["N", "rounds", "max h", "N/p", "h/(N/p)", "sorted+balanced"],
    )
    for N in (1_000, 10_000, 100_000):
        rng = random.Random(N)
        xs = np.array([rng.randrange(10 * N) for _ in range(N)], dtype=np.int64)
        chunk = -(-N // p)
        dist = [
            RecordBatch("bench.x1", {"x": xs[i * chunk:(i + 1) * chunk]})
            for i in range(p)
        ]
        mach = Machine(p)
        out = sample_sort_cols(mach, dist, "x")
        ok = sorted_and_balanced(mach, [b.col("x").tolist() for b in out], key=lambda x: x)
        t.add_row(
            N,
            mach.metrics.rounds,
            mach.metrics.max_h,
            N // p,
            round(mach.metrics.max_h / (N / p), 2),
            "yes" if ok else "NO",
        )
    t.add_note("rounds identical across N; h a small constant multiple of N/p")
    return t
