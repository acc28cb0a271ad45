"""Structural validator for a built distributed range tree.

Checks the invariants the paper's definitions and theorems promise —
Definition 2 labeling arithmetic, Definition 3 hat/forest consistency,
Theorem 1 ownership layout, and the aggregate annotations ``f(v)`` of
Algorithm AssociativeFunction — against a live tree.  Used by the CLI's
``--validate`` flag and by tests to prove queries never mutate the
structure; corruption of any single field (an aggregate, an owner
location, a heap index, one slot of a forest element's arrays) must be
caught.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Tuple

import numpy as np

from .._util import ilog2
from .labeling import is_valid_path

__all__ = ["ValidationReport", "validate_tree"]


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_tree`: pass/fail plus the failure list."""

    ok: bool
    failures: List[str] = field(default_factory=list)
    checks_run: int = 0

    def summary(self, max_failures: int = 5) -> str:
        """One-line human summary; long failure lists are truncated."""
        if self.ok:
            return f"validation: OK ({self.checks_run} checks)"
        shown = "; ".join(self.failures[:max_failures])
        extra = len(self.failures) - max_failures
        tail = f" (+{extra} more)" if extra > 0 else ""
        return f"validation: FAILED after {self.checks_run} checks — {shown}{tail}"


def _closed_form_sizes(w: int, r: int) -> Tuple[int, int, int]:
    """``(T, R, S)`` of an ``r``-dimensional range tree on ``w`` leaves:
    nodes, ``row_block`` rows (last-dimension leaves) and leaf records of
    all segment trees.  Summed level by level — a primary tree has
    ``2^l`` nodes of width ``w/2^l`` at level ``l``, each anchoring one
    ``(r−1)``-dimensional tree — where the builder recurses root-down:
    the independent form."""
    if r == 1:
        return 2 * w - 1, w, w
    nodes, rows, leaves = 0, 0, w
    for level in range(ilog2(w) + 1):
        t, rr, s = _closed_form_sizes(w >> level, r - 1)
        nodes += (1 + t) << level
        rows += rr << level
        leaves += s << level
    return nodes, rows, leaves


def _check_element_arrays(el, check: Callable[[bool, str], None]) -> None:
    """A forest element's arrays against Definition 2's closed forms.

    Reads only the arrays (and the rank rows and values they index):
    block sizes; per segment tree — enumerated by arithmetic, its rows
    read through ``row_block`` — that its key slice is its own start plus
    its rows' ranks, ascending, and that the same rows carry exactly the
    ranks of the parent node's key slice (so every tree's rows are the
    rows under its parent node); and every aggregate slot, by re-folding.
    """
    soa = el.soa
    fid = el.forest_id
    m = el.nleaves
    r = el.ranks.shape[1] - el.dim
    n_want, rows_want, records_want = _closed_form_sizes(m, r)
    sized = len(soa.aggs) == n_want
    check(sized, f"element {fid}: node count is not T({m}, {r}) = {n_want}")
    rows_ok = (
        len(soa.keys) == r
        and all(
            len(block) == _closed_form_sizes(m, k + 1)[1]
            for k, block in enumerate(soa.keys)
        )
        and len(soa.row_block) == rows_want
        and el.size_records == records_want
        # a corrupt row must fail a check, not the validator
        and bool(((soa.row_block >= 0) & (soa.row_block < m)).all())
    )
    check(
        rows_ok,
        f"element {fid}: not R({m}, {r}) = {rows_want} row_block rows "
        f"in 0..{m - 1} and {records_want} leaf records",
    )
    if not (sized and rows_ok):
        return  # the slot checks below index by these sizes

    keyed = partitions = True
    for k, classes in enumerate(soa.trees()):
        for w, (starts, parent) in classes.items():
            at = np.arange(w, dtype=np.int64)
            rows = soa.row_block[starts[:, -2:-1] + at]
            own = el.ranks[rows, el.dim + k]
            if k < r - 1:
                own = np.sort(own, axis=1)  # the last block is held in row_block order
            start = starts[:, :1]
            keyed = keyed and np.array_equal(soa.keys[k][start + at], start * soa.span + own)
            if k:
                partitions = partitions and np.array_equal(
                    soa.keys[k - 1][parent[:, None] + at] % soa.span,
                    np.sort(el.ranks[rows, el.dim + k - 1], axis=1),
                )
    check(
        keyed,
        f"element {fid}: a key block slot is not its tree's start and its row's rank",
    )
    check(
        partitions,
        f"element {fid}: a tree's row_block slice is not a permutation of its parent's",
    )
    # every aggregate slot: re-fold the values over the held topology
    fresh = type(soa)(span=soa.span, keys=soa.keys, row_block=soa.row_block)
    fresh.annotate(el.values, el.semigroup)
    check(
        (fresh.agg_mat is None) == (soa.agg_mat is None) and bool(np.all(fresh.aggs == soa.aggs)),
        f"element {fid}: an aggregate is not the fold of the values under its node",
    )


def validate_tree(tree) -> ValidationReport:
    """Verify every structural invariant of a :class:`DistributedRangeTree`.

    Pure local inspection — no communication rounds, no mutation; safe to
    run between query batches.
    """
    failures: List[str] = []
    checks = 0
    hat = tree.hat
    p = tree.p
    d = tree.dim
    sg = tree.semigroup
    combine = sg.combine

    def check(cond: bool, message: str) -> None:
        nonlocal checks
        checks += 1
        if not cond:
            failures.append(message)

    # -- Definition 2: labeling arithmetic and heap-index relations --------
    for v in hat.iter_nodes():
        check(is_valid_path(v.path), f"invalid path {v.path}")
        if not v.is_hat_leaf:
            check(
                v.left is not None
                and v.right is not None
                and v.left.index == 2 * v.index
                and v.right.index == 2 * v.index + 1,
                f"sibling index arithmetic broken at {v.path}",
            )
            check(
                v.lo == v.left.lo and v.hi == v.right.hi and v.left.hi < v.right.lo,
                f"segment not the disjoint union of children at {v.path}",
            )
            check(
                v.nleaves == v.left.nleaves + v.right.nleaves,
                f"leaf count mismatch at {v.path}",
            )

    # -- Definition 1: descendant pointers ---------------------------------
    for v in hat.iter_nodes():
        if v.descendant is not None:
            check(
                v.descendant.dim == v.dim + 1
                and v.descendant.nleaves == v.nleaves
                and v.descendant.index == v.index,
                f"descendant tree inconsistent at {v.path}",
            )
        if v.dim == d - 1:
            check(v.descendant is None, f"last-dimension node {v.path} has a descendant")

    # -- Algorithm AssociativeFunction: the f(v) annotations ---------------
    # Every internal hat node of every dimension folds its children
    # (Hat.build and refresh_aggregates maintain all of them, even though
    # Search only reads the last dimension's).
    for v in hat.iter_nodes():
        if not v.is_hat_leaf:
            check(
                v.agg == combine(v.left.agg, v.right.agg),
                f"aggregate f(v) mismatch at {v.path}",
            )

    # -- Definition 3 / Theorem 1: hat leaves name the forest exactly ------
    for leaf in hat.hat_leaves():
        check(
            leaf.location is not None and 0 <= leaf.location < p,
            f"hat leaf {leaf.path} has owner {leaf.location} outside 0..{p - 1}",
        )
        if not (leaf.location is not None and 0 <= leaf.location < p):
            continue
        el = tree.forest_store[leaf.location].get(leaf.path)
        check(
            el is not None,
            f"missing forest element {leaf.path} at rank {leaf.location}",
        )
        if el is None:
            continue
        check(el.location == leaf.location, f"element {leaf.path} lies about its owner")
        check(
            el.nleaves == leaf.nleaves and el.seg == (leaf.lo, leaf.hi),
            f"element {leaf.path} disagrees with its hat leaf",
        )
        check(
            el.group_rank == leaf.group_rank and el.group_rank % p == leaf.location,
            f"element {leaf.path} violates the group-to-processor rule",
        )
        check(
            el.soa.root_agg() == leaf.agg,
            f"hat-leaf aggregate stale for {leaf.path}",
        )
        _check_element_arrays(el, check)

    # -- Store side: every stored element is a known, correctly-placed leaf -
    seen: set = set()
    for rank, store in enumerate(tree.forest_store):
        for fid, el in store.items():
            check(fid not in seen, f"forest id {fid} stored on multiple ranks")
            seen.add(fid)
            check(
                el.location == rank,
                f"element {fid} stored at rank {rank} claims location {el.location}",
            )
            check(
                el.forest_id == fid,
                f"element stored under {fid} is labeled {el.forest_id}",
            )
            node = hat.nodes_by_path.get(fid)
            check(
                node is not None and node.is_hat_leaf,
                f"stored element {fid} is not a hat leaf",
            )

    return ValidationReport(ok=not failures, failures=failures, checks_run=checks)
