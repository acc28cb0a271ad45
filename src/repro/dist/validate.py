"""Structural validator for a built distributed range tree.

Checks the invariants the paper's definitions and theorems promise —
Definition 2 labeling arithmetic, Definition 3 hat/forest consistency,
Theorem 1 ownership layout, and the aggregate annotations ``f(v)`` of
Algorithm AssociativeFunction — against a live tree.  Used by the CLI's
``--validate`` flag and by tests to prove queries never mutate the
structure; corruption of any single field (an aggregate, an owner
location, a tree index, a heap index, one slot of a forest stack's
arrays) must be caught.
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


def _ranked_rows(ranked, pids: np.ndarray) -> np.ndarray:
    """The row of ``ranked`` holding each id, ``-1`` for an id it lacks."""
    order = np.argsort(ranked.ids, kind="stable")
    at = order[np.minimum(np.searchsorted(ranked.ids, pids, sorter=order), len(order) - 1)]
    return np.where(ranked.ids[at] == pids, at, -1)


def _check_stack(stack, count, ranks, values, semigroup, dim, name, check) -> bool:
    """A stack of ``count`` trees against Definition 2's closed forms.

    ``ranks`` and ``values`` are the rank rows and lifted values of the
    stack's rows, looked up by id.  Checks block sizes; per segment tree
    — enumerated by arithmetic, its rows read through ``row_block`` —
    that its key slice is its own start plus its rows' ranks, ascending,
    and that the same rows carry exactly the ranks of the parent node's
    key slice (so every tree's rows are the rows under its parent node);
    and every aggregate slot, by re-folding.  Returns whether the sizes
    held, which the per-tree checks index by.
    """
    m = stack.width
    r = ranks.shape[1] - dim
    n_want, rows_want, records_want = (count * x for x in _closed_form_sizes(m, r))
    sized = len(stack.aggs) == n_want
    check(sized, f"{name}: node count is not T({m}, {r}) x {count} = {n_want}")
    rows_ok = (
        len(stack.keys) == r
        and all(
            len(block) == count * _closed_form_sizes(m, k + 1)[1]
            for k, block in enumerate(stack.keys)
        )
        and len(stack.row_block) == rows_want
        and stack.size_records == records_want
        # a corrupt row must fail a check, not the validator
        and bool(((stack.row_block >= 0) & (stack.row_block < count * m)).all())
    )
    check(
        rows_ok,
        f"{name}: not R({m}, {r}) x {count} = {rows_want} row_block rows "
        f"in 0..{count * m - 1} and {records_want} leaf records",
    )
    if not (sized and rows_ok):
        return False

    keyed = partitions = True
    for k, classes in enumerate(stack.layout()):
        for w, (starts, parent) in classes.items():
            at = np.arange(w, dtype=np.int64)
            rows = stack.row_block[starts[:, -2:-1] + at]
            own = ranks[rows, dim + k]
            if k < r - 1:
                own = np.sort(own, axis=1)  # the last block is held in row_block order
            start = starts[:, :1]
            keyed = keyed and np.array_equal(stack.keys[k][start + at], start * stack.span + own)
            if k:
                partitions = partitions and np.array_equal(
                    stack.keys[k - 1][parent[:, None] + at] % stack.span,
                    np.sort(ranks[rows, dim + k - 1], axis=1),
                )
    check(keyed, f"{name}: a key block slot is not its tree's start and its row's rank")
    check(
        partitions,
        f"{name}: a tree's row_block slice is not a permutation of its parent's",
    )
    # every aggregate slot: re-fold the values over the held topology
    fresh = type(stack)(span=stack.span, width=m, keys=stack.keys, row_block=stack.row_block)
    fresh.annotate(values, semigroup)
    check(
        (fresh.agg_mat is None) == (stack.agg_mat is None)
        and bool(np.all(fresh.aggs == stack.aggs)),
        f"{name}: an aggregate is not the fold of the values under its node",
    )
    return True


def _check_forest(tree, check: Callable[[bool, str], None]) -> None:
    """Every stack against the hat leaves that name its trees.

    Construct step 3's rule is re-derived from the labels: phase ``j``'s
    groups, in its sort order (tree id, then rank), have group ranks
    ``base_j, base_j + 1, ...``; group rank ``G`` goes to rank ``G mod
    p``, which stacks its phase-``j`` groups in arrival order — so the
    phase's ``g``-th group is tree ``g // p`` there.  A stack's rank rows
    and values are read from the tree's own point set and a fresh lift,
    by id, not from anything the stack holds.
    """
    from . import lift_values  # the package imports this module

    hat, p, d = tree.hat, tree.p, tree.dim
    values = lift_values(tree.semigroup, tree.ranked, tree.points)
    leaves = np.flatnonzero(hat.leaf).tolist()
    named: dict = {}  # (rank, dimension) -> the hat leaves naming that stack's trees
    base = 0
    for j in range(d):
        phase = sorted(
            (i for i in leaves if hat.dim[i] == j),
            key=lambda i: (hat.path(i)[1:], int(hat.lo[i])),
        )
        for g, i in enumerate(phase):
            check(
                (hat.location[i], hat.tree[i]) == ((base + g) % p, g // p),
                f"hat leaf {hat.path(i)} violates the group-to-processor rule",
            )
            named.setdefault((int(hat.location[i]), j), []).append(i)
        base += len(phase)

    for rank, store in enumerate(tree.forest_store):
        for j, stack in store.items():
            name = f"stack (rank {rank}, dimension {j})"
            mine = named.pop((rank, j), [])
            check(bool(mine), f"{name} is named by no hat leaf")
            if not mine:
                continue
            count, m = len(mine), stack.width
            rows = _ranked_rows(tree.ranked, stack.pids)
            whole = len(rows) == count * m and bool((rows >= 0).all())
            check(whole, f"{name}: its pids are not {count * m} points of the tree")
            if not whole:
                continue
            ranks = tree.ranked.ranks[rows]
            if not _check_stack(stack, count, ranks, values[rows], tree.semigroup, j, name, check):
                continue
            roots = stack.root_aggs()
            for i in mine:
                t, path = int(hat.tree[i]), hat.path(i)
                if not 0 <= t < count:
                    continue  # the group-to-processor rule has failed it
                key = ranks[t * m : (t + 1) * m, j]
                check(
                    hat.nleaves[i] == m
                    and (hat.lo[i], hat.hi[i]) == (key[0], key[-1])
                    and bool((key[1:] > key[:-1]).all()),
                    f"element {path} disagrees with its hat leaf",
                )
                check(roots[t] == hat.agg(i), f"hat-leaf aggregate stale for {path}")
    for (rank, _j), mine in named.items():
        check(False, f"missing forest element {hat.path(mine[0])} at rank {rank}")


def _hat_size(w: int, r: int) -> int:
    """``H(w, r)``: nodes of a hat whose trees have ``w`` hat leaves, over
    ``r`` dimensions — a root, its descendant tree (same width, one
    dimension fewer) and two half-width subtrees."""
    if w == 1:
        return 1
    if r == 1:
        return 2 * w - 1
    return 1 + _hat_size(w, r - 1) + 2 * _hat_size(w // 2, r)


def _check_hat(tree, check: Callable[[bool, str], None]) -> bool:
    """The hat's columns against Definitions 1-3, read from other sources.

    Row numbers follow from ``H(w, r)`` alone (a node's descendant tree
    is emitted right after it, then its left and right subtrees), names
    from Definition 2's arithmetic; internal rows must be the union /
    sum / ``combine`` of their children (hat-leaf values are checked
    against the forest by :func:`_check_forest`).  Returns whether the
    hat has the node count the rest indexes by.
    """
    hat = tree.hat
    p, d = tree.p, tree.dim
    combine = tree.semigroup.combine
    size = _hat_size(p, d)
    per_node = ("dim", "lo", "hi", "nleaves", "leaf", "last_dim", "left", "right",
                "desc", "location", "tree", "tile_off", "tile_len", "paths")
    aggs = hat.agg_obj if hat.agg_mat is None else hat.agg_mat
    sized = aggs is not None and all(
        len(col) == size for col in [aggs, *(getattr(hat, c) for c in per_node)]
    )
    check(sized, f"hat: node count is not H({p}, {d}) = {size}")
    if not sized:
        return False  # the row arithmetic below indexes by this size
    check(
        hat.path(0) == ((1, ilog2(tree.n)),)
        and hat.leaf_level == ilog2(tree.n) - ilog2(p),
        "hat root is not node (1, log n) cut at level log(n/p)",
    )
    want: List[Any] = [None] * size  # f(v), folded up from the hat leaves

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
            want[i] = hat.agg(i)
            loc = int(hat.location[i])
            check(0 <= loc < p, f"hat leaf {path} has owner {loc} outside 0..{p - 1}")
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
            check(
                hat.location[i] == -1 and hat.tree[i] == -1,
                f"internal node {path} names an owner",
            )
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
    return True


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

    # -- Definitions 1-3, Theorem 1, AssociativeFunction: the hat, then
    # the stacks whose trees its leaves name ------------------------------
    if _check_hat(tree, check):
        _check_forest(tree, check)

    return ValidationReport(ok=not failures, failures=failures, checks_run=checks)
