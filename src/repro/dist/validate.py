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
from typing import Any, Callable, List, Tuple

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


def _hat_size(w: int, r: int) -> int:
    """``H(w, r)``: nodes of a hat whose trees have ``w`` hat leaves, over
    ``r`` dimensions — a root, its descendant tree (same width, one
    dimension fewer) and two half-width subtrees."""
    if w == 1:
        return 1
    if r == 1:
        return 2 * w - 1
    return 1 + _hat_size(w, r - 1) + 2 * _hat_size(w // 2, r)


def _check_hat(tree, check: Callable[[bool, str], None]) -> set:
    """The hat's columns against Definitions 1-3, read from other sources.

    Row numbers follow from ``H(w, r)`` alone (a node's descendant tree
    is emitted right after it, then its left and right subtrees), names
    from Definition 2's arithmetic, and every hat-leaf value from the
    forest element the leaf names; internal rows must be the union / sum
    / ``combine`` of their children.  Returns the hat-leaf paths.
    """
    hat = tree.hat
    p, d = tree.p, tree.dim
    combine = tree.semigroup.combine
    size = _hat_size(p, d)
    per_node = ("dim", "lo", "hi", "nleaves", "leaf", "last_dim", "left", "right",
                "desc", "location", "tile_off", "tile_len", "paths")
    aggs = hat.agg_obj if hat.agg_mat is None else hat.agg_mat
    sized = aggs is not None and all(
        len(col) == size for col in [aggs, *(getattr(hat, c) for c in per_node)]
    )
    check(sized, f"hat: node count is not H({p}, {d}) = {size}")
    if not sized:
        return set()  # the row arithmetic below indexes by this size
    check(
        hat.path(0) == ((1, ilog2(tree.n)),)
        and hat.leaf_level == ilog2(tree.n) - ilog2(p),
        "hat root is not node (1, log n) cut at level log(n/p)",
    )
    want: List[Any] = [None] * size  # f(v), folded from the elements' own roots
    leaf_paths: set = set()

    def visit_leaf(i: int, path) -> None:
        leaf_paths.add(path)
        want[i] = hat.agg(i)
        loc = int(hat.location[i])
        check(0 <= loc < p, f"hat leaf {path} has owner {loc} outside 0..{p - 1}")
        if not 0 <= loc < p:
            return
        el = tree.forest_store[loc].get(path)
        check(el is not None, f"missing forest element {path} at rank {loc}")
        if el is None:
            return
        check(el.location == loc, f"element {path} lies about its owner")
        check(
            el.nleaves == hat.nleaves[i] and el.seg == (hat.lo[i], hat.hi[i]),
            f"element {path} disagrees with its hat leaf",
        )
        check(
            el.group_rank % p == loc,
            f"element {path} violates the group-to-processor rule",
        )
        want[i] = el.soa.root_agg()
        check(want[i] == hat.agg(i), f"hat-leaf aggregate stale for {path}")
        _check_element_arrays(el, check)

    def visit(i: int, w: int, r: int) -> List[int]:
        """Check row ``i`` — ``w`` hat leaves below it in its own tree,
        ``r`` dimensions left — and everything emitted under it; returns
        the rows of those leaves, left to right."""
        path = hat.path(i)
        check(is_valid_path(path), f"invalid path {path}")
        check(
            hat.dim[i] == d - r
            and hat.leaf[i] == (w == 1)
            and hat.last_dim[i] == (r == 1),
            f"dimension / leaf flags wrong at {path}",
        )
        desc = i + 1 if w > 1 and r > 1 else -1
        left = i + 1 + (_hat_size(w, r - 1) if r > 1 else 0) if w > 1 else -1
        right = left + _hat_size(w // 2, r) if w > 1 else -1
        check(
            (hat.desc[i], hat.left[i], hat.right[i]) == (desc, left, right),
            f"child or descendant link broken at {path}",
        )
        if w == 1:
            visit_leaf(i, path)
            leaves = [i]
        else:
            if r > 1:
                visit(desc, w, r - 1)
                check(
                    hat.path(desc) == (path[0],) + path
                    and hat.nleaves[desc] == hat.nleaves[i],
                    f"descendant tree inconsistent at {path}",
                )
            leaves = visit(left, w // 2, r) + visit(right, w // 2, r)
            (idx, lvl), tree_id = path[0], path[1:]
            check(
                hat.path(left) == ((2 * idx, lvl - 1),) + tree_id
                and hat.path(right) == ((2 * idx + 1, lvl - 1),) + tree_id,
                f"sibling index arithmetic broken at {path}",
            )
            check(
                hat.lo[i] == hat.lo[left]
                and hat.hi[i] == hat.hi[right]
                and hat.hi[left] < hat.lo[right],
                f"segment not the disjoint union of children at {path}",
            )
            check(
                hat.nleaves[i] == hat.nleaves[left] + hat.nleaves[right],
                f"leaf count mismatch at {path}",
            )
            check(hat.location[i] == -1, f"internal node {path} names an owner")
            # every dimension's f(v), though Search reads the last one's only
            want[i] = combine(want[left], want[right])
            check(want[i] == hat.agg(i), f"aggregate f(v) mismatch at {path}")
        off, length = int(hat.tile_off[i]), int(hat.tile_len[i])
        tile = leaves if r == 1 else []  # tilings are held where Search selects
        check(
            length == len(tile)
            and hat.tile_leaf_ids[off : off + length].tolist() == tile,
            f"tile slice of {path} is not the hat leaves under it, left to right",
        )
        return leaves

    visit(0, p, d)
    check(
        (hat.agg_obj is None and hat.agg_kernel is not None)
        if hat.agg_mat is not None
        else hat.agg_kernel is None,
        "hat holds its aggregates in more than one column",
    )
    if hat.agg_mat is not None:
        check(
            np.array_equal(hat.agg_mat, hat.agg_kernel.encode(want)),
            "hat agg_mat is not its kernel's encoding of the f(v) values",
        )
    return leaf_paths


def validate_tree(tree) -> ValidationReport:
    """Verify every structural invariant of a :class:`DistributedRangeTree`.

    Pure local inspection — no communication rounds, no mutation; safe to
    run between query batches.
    """
    failures: List[str] = []
    checks = 0

    def check(cond: bool, message: str) -> None:
        nonlocal checks
        checks += 1
        if not cond:
            failures.append(message)

    # -- Definitions 1-3, Theorem 1, AssociativeFunction: the hat, and the
    # forest elements its leaves name -------------------------------------
    leaf_paths = _check_hat(tree, check)

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
            check(fid in leaf_paths, f"stored element {fid} is not a hat leaf")

    return ValidationReport(ok=not failures, failures=failures, checks_run=checks)
