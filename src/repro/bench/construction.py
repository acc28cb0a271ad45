"""Experiments C1, C2, CAV1: Algorithm Construct scaling (Theorem 2)."""

from __future__ import annotations

from .._util import ilog2
from ..dist import DistributedRangeTree
from ..workloads import uniform_points
from .tables import Table

__all__ = ["run_c1", "run_c2", "run_cav1"]


def _s(n: int, d: int) -> int:
    """The structure size s = n log^{d-1} n (in leaves)."""
    return n * (ilog2(n) + 1) ** (d - 1)


def run_c1(p: int = 8) -> Table:
    """Theorem 2, n-scaling: local work tracks s/p; rounds constant in n."""
    t = Table(
        f"C1 — Construct scaling in n (p={p})",
        ["d", "n", "s/p", "max work", "work/(s/p)", "rounds", "max h"],
    )
    for d, ns in [(1, (256, 1024, 4096)), (2, (256, 1024, 4096)), (3, (128, 256, 512))]:
        for n in ns:
            tree = DistributedRangeTree.build(uniform_points(n, d, seed=2), p=p)
            m = tree.metrics
            sp = _s(n, d) // p
            t.add_row(d, n, sp, m.max_work, round(m.max_work / sp, 2), m.rounds, m.max_h)
    t.add_note("'work/(s/p)' must stay roughly flat per d (work = Θ(s/p))")
    t.add_note("'rounds' must be identical within each d (O(1) h-relations)")
    return t


def run_c2(n: int = 2048, d: int = 2) -> Table:
    """Theorem 2, p-scaling: max per-proc work ∝ 1/p at fixed n."""
    t = Table(
        f"C2 — Construct scaling in p (n={n}, d={d})",
        ["p", "max work", "speedup vs p=2", "rounds", "max h", "s/p"],
    )
    base = None
    for p in (2, 4, 8, 16):
        tree = DistributedRangeTree.build(uniform_points(n, d, seed=3), p=p)
        m = tree.metrics
        if base is None:
            base = m.max_work
        t.add_row(p, m.max_work, round(base / m.max_work, 2), m.rounds, m.max_h, _s(n, d) // p)
    t.add_note("speedup should grow with p (ideal: p/2); rounds stay constant")
    return t


def run_cav1() -> Table:
    """Section 6 caveat: phase j sorts n·log^{j-1} p records, not n."""
    t = Table(
        "CAV1 — records sorted per phase (the Section 6 caveat)",
        ["n", "d", "p", "phase", "records", "n·log^{j} p (theory)"],
    )
    for n, d, p in [(256, 2, 4), (256, 2, 16), (256, 3, 4), (256, 3, 8)]:
        tree = DistributedRangeTree.build(uniform_points(n, d, seed=4), p=p)
        logp = ilog2(p)
        for j, cnt in enumerate(tree.construct_result.phase_record_counts):
            theory = n * (logp ** j) if j <= 1 else n * logp * (logp + 1) // 2 * (logp ** (j - 2))
            t.add_row(n, d, p, j, cnt, theory)
    t.add_note("phase 0 sorts exactly n; deeper phases grow by ~log p per dimension")
    return t
