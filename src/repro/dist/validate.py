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

    Reads only the arrays (and the rank rows they index): sizes, interval
    order and nesting, the arithmetic links, and — through each node's
    ``row_block`` slice — that children partition their parent's rows,
    which makes every tree's slice a permutation of its parent's.
    """
    soa = el.soa
    fid = el.forest_id
    m = el.nleaves
    r = soa.d - el.dim
    n_want, rows_want, records_want = _closed_form_sizes(m, r)
    node_arrays = (
        soa.dim_ix, soa.lo, soa.hi, soa.left, soa.right,
        soa.desc, soa.last, soa.nleaves, soa.row_off,
    )
    sized = all(len(a) == n_want for a in node_arrays)
    check(sized, f"element {fid}: node count is not T({m}, {r}) = {n_want}")
    rows_ok = len(soa.row_block) == rows_want and el.size_records == records_want
    check(
        rows_ok,
        f"element {fid}: not R({m}, {r}) = {rows_want} row_block rows "
        f"and {records_want} leaf records",
    )
    if not (sized and rows_ok):
        return  # the slot checks below index by these sizes

    ids = np.arange(n_want, dtype=np.int64)
    last, nleaves = soa.last, soa.nleaves
    internal = nleaves > 1
    check((soa.lo <= soa.hi).all(), f"element {fid}: a node has lo > hi")
    check(
        (soa.left[last] == np.where(internal, ids + 1, -1)[last]).all()
        and (soa.right[last] == np.where(internal, ids + nleaves, -1)[last]).all(),
        f"element {fid}: last-dimension links are not left = id+1, right = id+nleaves",
    )
    check(
        (soa.desc == np.where(last, -1, ids + 1)).all(),
        f"element {fid}: descendant links are not id+1 off the last dimension",
    )

    def at(arr: np.ndarray, idx: np.ndarray) -> np.ndarray:
        # a corrupt link or offset must fail a check, not the validator
        return arr.take(idx, mode="clip")

    v = np.flatnonzero(internal)
    kids = (soa.left[v], soa.right[v])
    check(
        all(
            (
                (soa.lo[v] <= at(soa.lo, k))
                & (at(soa.hi, k) <= soa.hi[v])
                & (at(soa.dim_ix, k) == soa.dim_ix[v])
            ).all()
            for k in kids
        ),
        f"element {fid}: a child interval does not nest in its parent's",
    )
    # rows under any node: the (row_off, nleaves) slice of the
    # last-dimension tree its descendant links reach, one hop per
    # earlier dimension
    start = at(soa.row_off, ids + (soa.d - 1 - soa.dim_ix))

    def rows_under(nodes: np.ndarray, w: int) -> np.ndarray:
        span = np.arange(w, dtype=np.int64)
        return np.sort(at(soa.row_block, at(start, nodes)[:, None] + span), axis=1)

    partitions = np.array_equal(rows_under(ids[:1], m)[0], np.arange(m))
    for w in np.unique(nleaves[v]):
        of_w = nleaves[v] == w
        halves = [rows_under(k[of_w], w // 2) for k in kids]
        partitions = partitions and np.array_equal(
            rows_under(v[of_w], w), np.sort(np.concatenate(halves, axis=1), axis=1)
        )
    check(
        partitions,
        f"element {fid}: a tree's row_block slice is not a permutation of its parent's",
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
