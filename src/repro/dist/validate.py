"""Structural validator for a built distributed range tree.

Checks the invariants the paper's definitions and theorems promise —
Definition 2 labeling arithmetic, Definition 3 hat/forest consistency
and hat replication, Theorem 1 ownership layout, and the aggregate
annotations ``f(v)`` of Algorithm AssociativeFunction — against a live
tree.  Used by the CLI's ``--validate`` flag and by tests to prove
queries never mutate the structure; corruption of any single field (an
aggregate, an owner location, a tree index, a heap index, one slot of a
forest stack's arrays, one rank's hat replica) must be caught.  The
aggregates checked are the tree's annotation (``tree.semigroup``): its
value layers, re-folded from a fresh lift — under a count, which no tree
stores, a zero-width column whose row counts are checked all the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Tuple

import numpy as np

from .._util import ilog2
from . import lift_values

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


def _closed_form_sizes(w: int, r: int) -> Tuple[int, int]:
    """``(R, S)`` of an ``r``-dimensional range tree on ``w`` leaves:
    ``row_block`` rows (last-dimension leaves) and leaf records of all
    segment trees.  Summed level by level — a primary tree has ``2^l``
    nodes of width ``w/2^l`` at level ``l``, each anchoring one
    ``(r−1)``-dimensional tree — where the builder recurses root-down:
    the independent form."""
    if r == 1:
        return w, w
    rows, leaves = 0, w
    for level in range(ilog2(w) + 1):
        rr, s = _closed_form_sizes(w >> level, r - 1)
        rows += rr << level
        leaves += s << level
    return rows, leaves


def _ranked_rows(ranked, pids: np.ndarray) -> np.ndarray:
    """The row of ``ranked`` holding each id, ``-1`` for an id it lacks."""
    order = np.argsort(ranked.ids, kind="stable")
    at = order[np.minimum(np.searchsorted(ranked.ids, pids, sorter=order), len(order) - 1)]
    return np.where(ranked.ids[at] == pids, at, -1)


def _check_stack(stack, count, ranks, values, semigroup, dim, name, check) -> bool:
    """A stack of ``count`` trees against Definition 2's closed forms.

    ``ranks`` and ``values`` are the rank rows and lifted values of the
    stack's rows, looked up by id.  Checks block sizes and index types
    (one signed type over the key blocks that holds ``R(m, r) · trees ·
    span``, so no key wrapped; an integer ``row_block``); per segment
    tree — enumerated by arithmetic, its rows read through ``row_block`` —
    that its key slice is its own start plus its rows' ranks, ascending,
    and that the same rows carry exactly the ranks of the parent node's
    key slice (so every tree's rows are the rows under its parent node);
    that the aggregate column's tail is the rows' values; and every heap
    row, by re-folding.  Returns whether the sizes and types held, which
    the per-tree checks index by.
    """
    m = stack.width
    r = ranks.shape[1] - dim
    rows_want, records_want = (count * x for x in _closed_form_sizes(m, r))
    # one heap of m rows per width-m block of row_block, then one row per
    # stack row: its own value
    aggs_want = rows_want + count * m
    sized = len(stack.aggs) == aggs_want
    check(
        sized,
        f"{name}: aggregate row count is not R({m}, {r}) x {count} + {count} x {m} = {aggs_want}",
    )
    rows_ok = (
        len(stack.keys) == r
        and all(
            len(block) == count * _closed_form_sizes(m, k + 1)[0]
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
    # every key, row and walk probe lies below R(m, r) x trees x span:
    # the blocks' one type must hold it, or a key has wrapped
    bound = rows_want * stack.span
    types = {block.dtype for block in stack.keys}
    wide = (
        len(types) == 1
        and all(np.issubdtype(t, np.signedinteger) and np.iinfo(t).max >= bound for t in types)
        and np.issubdtype(stack.row_block.dtype, np.integer)
    )
    check(
        wide,
        f"{name}: key blocks are not one signed integer type holding R({m}, {r}) x {count} "
        f"x span = {bound}, or row_block is not integer",
    )
    if not (sized and rows_ok and wide):
        return False

    keyed = partitions = True
    for k, classes in enumerate(stack.layout()):
        for w, (starts, parent) in classes.items():
            at = np.arange(w, dtype=np.int64)
            rows = stack.row_block[starts[:, -1:] + at]
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
    # every aggregate slot: the tail is the rows' values, the heap rows
    # their re-fold over the held topology
    fresh = type(stack)(span=stack.span, width=m, keys=stack.keys, row_block=stack.row_block)
    fresh.annotate(values, semigroup)
    kernel = fresh.aggs.kernel == stack.aggs.kernel
    held, want = stack.aggs.data, fresh.aggs.data
    check(
        kernel and np.array_equal(want[rows_want:], held[rows_want:]),
        f"{name}: a leaf aggregate is not its row's lifted value",
    )
    check(
        kernel and np.array_equal(want[:rows_want], held[:rows_want]),
        f"{name}: an aggregate is not the fold of the values under its node",
    )
    return True


def _check_forest(tree, check: Callable[[bool, str], None]) -> None:
    """Every stack against the hat leaves that name its trees.

    The shape's ``location``/``tree`` columns (checked by
    :func:`_check_shape`) name the stack and tree of each hat leaf's
    element.  A stack's rank rows and values are read from the tree's own
    point set and a fresh lift, by id, not from anything the stack holds.
    """
    hat, shape = tree.hat, tree.hat.shape
    values = lift_values(tree.semigroup, tree.ranked, tree.points)
    named: dict = {}  # (rank, dimension) -> the hat leaves naming that stack's trees
    for i in np.flatnonzero(shape.leaf).tolist():
        named.setdefault((int(shape.location[i]), int(shape.dim[i])), []).append(i)

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
            roots = stack.root_aggs().to_list()
            for i in mine:
                t, path = int(shape.tree[i]), hat.path(i)
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


def _check_shape(shape, check: Callable[[bool, str], None]) -> bool:
    """The hat's shape against Definitions 1-3 and Construct's layout.

    Row numbers follow from ``H(w, r)`` alone (a node's descendant tree
    is emitted right after it, then its left and right subtrees), labels
    from Definition 2's arithmetic, widths, first/last hat leaves and
    tilings from the recursion, and what Construct reads: each phase's
    groups are its hat leaves in label order; group ``base_j + g`` goes
    to rank ``G mod p``, which stacks it as tree ``g // p``; and a hat
    leaf fans out to the keys (ranks among their phase's tree labels) of
    the descendant trees its proper ancestors anchor, nearest first.
    Returns whether the shape has the row count and the links the rest
    indexes by.
    """
    p, d = shape.p, shape.d
    size = _hat_size(p, d)
    rows = ("dim", "leaf", "last_dim", "left", "right", "desc", "paths", "width",
            "first", "last", "location", "tree", "tile_off", "tile_len", "fan_off", "fan_len")
    sized = all(len(getattr(shape, c)) == size for c in rows)
    check(sized, f"hat: node count is not H({p}, {d}) = {size}")
    if not sized:
        return False  # the row arithmetic below indexes by this size
    links: List[bool] = []
    ups: dict = {}  # a hat leaf off the last dimension -> its proper ancestors

    def visit(i: int, w: int, r: int, label, up=()) -> List[int]:
        """Check row ``i`` — labeled ``label``, ``w`` hat leaves below it
        in its own tree, ``up`` its proper ancestors there, ``r``
        dimensions left — and everything emitted under it; returns the
        rows of those leaves, left to right."""
        got = shape.label(i)
        check(got == label, f"row {i} is {got}, not {label}: sibling index arithmetic broken")
        check(
            shape.dim[i] == d - r
            and shape.leaf[i] == (w == 1)
            and shape.last_dim[i] == (r == 1),
            f"dimension / leaf flags wrong at {label}",
        )
        desc = i + 1 if w > 1 and r > 1 else -1
        left = i + 1 + (_hat_size(w, r - 1) if r > 1 else 0) if w > 1 else -1
        right = left + _hat_size(w // 2, r) if w > 1 else -1
        links.append((shape.desc[i], shape.left[i], shape.right[i]) == (desc, left, right))
        check(links[-1], f"child or descendant link broken at {label}")
        if w == 1:
            loc = int(shape.location[i])
            check(0 <= loc < p, f"hat leaf {label} has owner {loc} outside 0..{p - 1}")
            leaves = [i]
            if r > 1:
                ups[i] = up
        else:
            if r > 1:  # a descendant root inherits its anchor's label
                visit(desc, w, r - 1, (label[0],) + label)
            (idx, lvl), tree_id = label[0], label[1:]
            leaves = visit(left, w // 2, r, ((2 * idx, lvl - 1),) + tree_id, (i, *up))
            leaves += visit(right, w // 2, r, ((2 * idx + 1, lvl - 1),) + tree_id, (i, *up))
            check(
                shape.location[i] == -1 and shape.tree[i] == -1,
                f"internal node {label} names an owner",
            )
        check(
            (shape.width[i], shape.first[i], shape.last[i]) == (w, leaves[0], leaves[-1]),
            f"width or first/last hat leaf wrong at {label}",
        )
        off, length = int(shape.tile_off[i]), int(shape.tile_len[i])
        tile = leaves if r == 1 else []  # tilings are held where Search selects
        check(
            length == len(tile) and shape.tile_leaf_ids[off : off + length].tolist() == tile,
            f"tile slice of {label} is not the hat leaves under it, left to right",
        )
        return leaves

    visit(0, p, d, ((1, ilog2(p)),))
    base, key = 0, {}
    for j in range(d):
        labels = {i: shape.label(i) for i in np.flatnonzero(shape.leaf & (shape.dim == j)).tolist()}
        order = sorted(labels, key=lambda i: (labels[i][1:], labels[i][0]))
        check(
            len(shape.groups) == d and shape.groups[j].tolist() == order,
            f"phase {j}'s groups are not its hat leaves in label order",
        )
        for g, i in enumerate(order):
            check(
                (shape.location[i], shape.tree[i]) == ((base + g) % p, g // p),
                f"hat leaf {labels[i]} violates the group-to-processor rule",
            )
        base += len(labels)
        tree_ids = {shape.label(i)[1:] for i in np.flatnonzero(shape.dim == j).tolist()}
        key.update((tid, rank) for rank, tid in enumerate(sorted(tree_ids)))
    for i in range(size):
        off, length = int(shape.fan_off[i]), int(shape.fan_len[i])
        want = [key[shape.label(a)] for a in ups.get(i, ())]
        check(
            shape.fan_keys[off : off + length].tolist() == want,
            f"row {i} does not fan out to the trees its proper ancestors anchor",
        )
    return all(links)


def _check_hat(tree, check: Callable[[bool, str], None]) -> bool:
    """One tree's own hat rows: its cut, and per row its leaf count
    (``width · n/p``), segment and ``f(v)`` — an internal row's the
    union / ``combine`` of its children's; hat-leaf values are checked
    against the forest by :func:`_check_forest`.  Returns whether the
    rows have the shape's count."""
    hat, shape, n, p = tree.hat, tree.hat.shape, tree.n, tree.p
    own = (hat.aggs, hat.lo, hat.hi, hat.nleaves)
    sized = {len(col) for col in own} == {shape.size}
    check(sized, f"hat: a tree column is not the shape's {shape.size} rows")
    if not sized:
        return False
    check(hat.n == n and hat.leaf_level == ilog2(n) - ilog2(p), "hat not cut at log(n/p)")
    want: List[Any] = [None] * shape.size  # f(v), folded up from the hat leaves
    for i in range(shape.size - 1, -1, -1):  # children follow their parent
        path, left, right = hat.path(i), int(shape.left[i]), int(shape.right[i])
        check(hat.nleaves[i] == shape.width[i] * (n // p), f"leaf count mismatch at {path}")
        if left < 0:
            want[i] = hat.agg(i)
            continue
        check(
            hat.lo[i] == hat.lo[left]
            and hat.hi[i] == hat.hi[right]
            and hat.hi[left] < hat.lo[right],
            f"segment not the disjoint union of children at {path}",
        )
        # every dimension's f(v), though Search reads the last one's only
        want[i] = tree.semigroup.combine(want[left], want[right])
        check(want[i] == hat.agg(i), f"aggregate f(v) mismatch at {path}")
    kernel = tree.semigroup.kernel
    check(hat.aggs.kernel == kernel, "hat aggregates are not under the semigroup's kernel")
    check(
        np.array_equal(hat.aggs.data, kernel.encode(want)),
        "hat aggregates are not its kernel's encoding of the f(v) values",
    )
    return True


def _check_replicas(tree, check: Callable[[bool, str], None]) -> None:
    """Definition 3 replicates the hat: every rank's own replica has rank
    0's segments, leaf counts and ``f(v)`` under the same kernel."""
    first, *rest = tree.construct_result.hats
    for r, hat in enumerate(rest, 1):
        check(
            all(np.array_equal(getattr(hat, c), getattr(first, c)) for c in ("lo", "hi", "nleaves"))
            and hat.aggs.kernel == first.aggs.kernel
            and np.array_equal(hat.aggs.data, first.aggs.data),
            f"rank {r}'s hat replica differs from rank 0's",
        )


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

    # -- Definitions 1-3, Theorem 1, AssociativeFunction: the hat's shape
    # once, the tree's own hat rows, then the stacks its leaves name ------
    if _check_shape(tree.hat.shape, check) and _check_hat(tree, check):
        _check_forest(tree, check)
    _check_replicas(tree, check)

    return ValidationReport(ok=not failures, failures=failures, checks_run=checks)
