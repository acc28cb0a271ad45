"""Experiments F1-F3 and T1: structural reproductions of the paper's
figures and of Theorem 1's size claims."""

from __future__ import annotations

import numpy as np

from .._util import ilog2
from ..dist import DistributedRangeTree
from ..seq import SegTree
from ..workloads import uniform_points
from .tables import Table

__all__ = ["run_f1", "run_f2", "run_f3", "run_t1"]


def run_f1() -> Table:
    """Figure 1: the segment tree for [1, 8]."""
    tree = SegTree(np.arange(8))
    expected = (
        "[1,8]",
        "[1,5) [5,8]",
        "[1,3) [3,5) [5,7) [7,8]",
        "[1,2) [2,3) [3,4) [4,5) [5,6) [6,7) [7,8) [8,8]",
    )
    rendered = tree.render().split("\n")
    t = Table("F1 — Figure 1: segment tree for [1,8]", ["level", "paper", "ours", "match"])
    for i, (pap, got) in enumerate(zip(expected, rendered)):
        t.add_row(3 - i, pap, got, "yes" if pap == got else "NO")
    t.add_note("leaf segments [i,i+1) with the last reduced to [8,8]; internal = union of children")
    return t


def run_f2() -> Table:
    """Figure 2: the index/level labeling arithmetic of Definition 2."""
    from ..dist.labeling import left_child_index, right_child_index

    t = Table(
        "F2 — Figure 2: labeling (children of index x are 2x, 2x+1; grandchildren 4x..4x+3)",
        ["x", "children", "grandchildren", "descendant root index"],
    )
    for x in (1, 3, 5):
        kids = [left_child_index(x), right_child_index(x)]
        grand = [c for k in kids for c in (left_child_index(k), right_child_index(k))]
        t.add_row(x, kids, grand, x)
    t.add_note("a descendant tree's root inherits its ancestor's index (Definition 2(ii))")
    # verify against a real build: every hat descendant root shares its anchor's index
    tree = DistributedRangeTree.build(uniform_points(64, 2, seed=0), p=8)
    hat, shape = tree.hat, tree.hat.shape
    mismatches = sum(
        hat.path(int(shape.desc[i]))[0] != hat.path(i)[0]
        for i in np.nonzero(shape.desc >= 0)[0].tolist()
    )
    t.add_note(f"checked on a built hat (n=64, d=2, p=8): {mismatches} index inheritance violations")
    return t


def run_f3(n: int = 64, p: int = 8) -> Table:
    """Figure 3: the hat and forest of T in dimension one for p processors."""
    tree = DistributedRangeTree.build(uniform_points(n, 2, seed=0), p=p)
    hat, shape = tree.hat, tree.hat.shape
    t = Table(
        f"F3 — Figure 3: hat/forest decomposition (n={n}, d=2, p={p})",
        ["quantity", "paper says", "measured"],
    )
    primary = shape.dim == 0
    prim_leaves = hat.nleaves[primary & shape.leaf]
    t.add_row("hat levels (dim 1)", f"log p = {ilog2(p)}", ilog2(n) - hat.leaf_level)
    t.add_row("primary-hat leaves", f"p = {p}", len(prim_leaves))
    t.add_row("points per forest element", f"n/p = {n // p}", int(prim_leaves[0]))
    desc_sizes = sorted(hat.nleaves[primary & ~shape.leaf].tolist(), reverse=True)
    t.add_row("descendant trees of hat nodes (points)", "n, n/2, n/2, n/4 ...", desc_sizes)
    t.add_row("forest elements per processor", "equal", tree.space_report()["forest_elements_per_proc"])
    return t


def run_t1() -> Table:
    """Theorem 1: |H| = O(p log^{d-1} p); |F_i| = O(s/p) and balanced."""
    t = Table(
        "T1 — Theorem 1: hat and forest sizes",
        ["n", "d", "p", "hat nodes", "bound 4p·(log p+1)^(d-1)", "max F_i", "min F_i", "s/p", "max/min"],
    )
    for n, d, p in [
        (256, 1, 8),
        (256, 2, 4),
        (256, 2, 8),
        (256, 2, 16),
        (128, 3, 4),
        (128, 3, 8),
        (512, 2, 8),
    ]:
        tree = DistributedRangeTree.build(uniform_points(n, d, seed=1), p=p)
        sizes = tree.construct_result.forest_group_sizes()
        logp = max(1, ilog2(p))
        bound = 4 * p * (logp + 1) ** (d - 1)
        s = n * (ilog2(n) + 1) ** (d - 1)
        t.add_row(
            n,
            d,
            p,
            tree.hat.size_nodes(),
            bound,
            max(sizes),
            min(sizes),
            s // p,
            round(max(sizes) / max(1, min(sizes)), 3),
        )
    t.add_note("hat nodes must stay under the bound; |F_i| must be within 2x of each other")
    return t
