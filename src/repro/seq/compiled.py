"""The range tree as struct-of-arrays: direct build + batched walks.

The canonical walk (:meth:`repro.seq.range_tree.RangeTree.canonical`)
chases Python objects one query at a time; it is the reference.  A range
tree's topology is *fixed* after construction (refits replace
aggregates, never structure) and every label in it is Definition 2
arithmetic, so :meth:`CompiledForest.from_ranks` emits the flat arrays
straight from the rank table — no object tree in between — and every
batch of boxes (the sequential ``*_many`` queries and Search step 5
alike) walks them as level-by-level numpy frontier expansion.

Two invariants make the arrays exact, mirroring ``CompiledHat``:

* **Emission order.**  Node ids are assigned in the object walk's own
  DFS emission order — ``order(v) = [v] + order(descendant tree of v) +
  order(left subtree) + order(right subtree)`` — so each query's
  selection order is monotone in node id and one
  ``np.lexsort((node, query))`` reproduces the object walk's exact
  per-query emission order.  With ``T(w, r)`` nodes and ``R(w, r)``
  ``row_block`` rows in an ``r``-dimensional tree on ``w`` leaves,
  ``T(w, 1) = 2w − 1``, ``R(w, 1) = w`` and, for ``r > 1``,
  ``T(w, r) = 1 + T(w, r−1) + 2·T(w/2, r)`` (``R`` likewise without the
  ``1``; the halves vanish at ``w = 1``) — every id and row offset is a
  sum of these.
* **Visit accounting.**  :meth:`~repro.seq.segment_tree.SegTree.decompose_counted`
  pre-checks child overlap before pushing, so only roots of per-node
  walks can die; the frontier walk applies the same pre-check at push
  time, making ``np.bincount`` per-box visit totals equal the object
  walk's charged counts exactly.

Within one last-dimension segment tree the DFS order is plain preorder,
which makes the child links arithmetic (``left = id + 1``,
``right = id + nleaves``).

``tests/test_compiled_forest.py`` pins the arrays against the object
tree: same selections, same order, same visit counts, same aggregates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Iterator, List, Sequence, Tuple

import numpy as np

from .._util import require_power_of_two
from ..semigroup import Semigroup
from ..semigroup.kernels import KernelColumn, batched_heap_fold

__all__ = ["CompiledForest"]

_I64 = np.int64


@lru_cache(maxsize=128)
def _preorder_layout(m: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Preorder layout of a complete segment tree with ``m`` leaves.

    Returns ``(heap, start, width)`` over the ``2m - 1`` preorder
    positions: the heap id at each position, its leaf-slice start, and
    its leaf count.  Preorder is the object walk's emission order within
    one last-dimension tree, and it makes child links arithmetic:
    ``left(pos) = pos + 1``, ``right(pos) = pos + width(pos)``.
    Memoized per ``m`` — every tree of a size class shares one layout.
    """
    size = 2 * m - 1
    heap = np.empty(size, dtype=_I64)
    start = np.empty(size, dtype=_I64)
    width = np.empty(size, dtype=_I64)
    stack: List[Tuple[int, int, int]] = [(1, 0, m)]
    i = 0
    while stack:
        h, s, w = stack.pop()
        heap[i] = h
        start[i] = s
        width[i] = w
        i += 1
        if w > 1:
            half = w >> 1
            stack.append((2 * h + 1, s + half, half))
            stack.append((2 * h, s, half))
    return heap, start, width


@lru_cache(maxsize=None)
def _sizes(w: int, r: int) -> Tuple[int, int]:
    """``(T, R)``: node and ``row_block`` counts of an ``r``-dimensional
    range tree on ``w`` leaves (Definition 2 arithmetic).

    ``T(w, 1) = 2w − 1`` and ``R(w, 1) = w``; for ``r > 1`` a tree is its
    primary root, the root's ``(r − 1)``-dimensional descendant tree and
    the two half-width subtrees: ``T(w, r) = 1 + T(w, r−1) + 2·T(w/2, r)``
    (``R`` likewise, without the ``1``), the halves vanishing at ``w = 1``.
    """
    if r == 1:
        return 2 * w - 1, w
    t1, r1 = _sizes(w, r - 1)
    if w == 1:
        return 1 + t1, r1
    th, rh = _sizes(w >> 1, r)
    return 1 + t1 + 2 * th, r1 + 2 * rh


@lru_cache(maxsize=256)
def _primary_layout(w: int, r: int) -> Tuple[Tuple[np.ndarray, ...], Tuple[np.ndarray, ...]]:
    """Per level of an ``r > 1``-dimensional tree's primary segment tree:
    each node's DFS-emission offset from the tree's first id, and its
    descendant tree's offset into the tree's ``row_block`` slice.

    A node at offset ``o`` of width ``v`` emits itself, its descendant
    tree (``T(v, r−1)`` ids from ``o + 1``, ``R(v, r−1)`` rows), its left
    subtree and then its right subtree — so the children's offsets are
    sums of :func:`_sizes`.  Memoized per ``(w, r)``; read-only.
    """
    node = [np.zeros(1, dtype=_I64)]
    row = [np.zeros(1, dtype=_I64)]
    v = w
    while v > 1:
        t1, r1 = _sizes(v, r - 1)
        th, rh = _sizes(v >> 1, r)
        nxt_n = np.empty(2 * len(node[-1]), dtype=_I64)
        nxt_n[0::2] = node[-1] + (1 + t1)
        nxt_n[1::2] = node[-1] + (1 + t1 + th)
        nxt_r = np.empty_like(nxt_n)
        nxt_r[0::2] = row[-1] + r1
        nxt_r[1::2] = row[-1] + (r1 + rh)
        node.append(nxt_n)
        row.append(nxt_r)
        v >>= 1
    return tuple(node), tuple(row)


class CompiledForest:
    """A range tree as flat arrays, walked for many boxes at once.

    Per node (global DFS emission-order id): ``dim_ix`` the absolute
    dimension compared at that node, ``lo``/``hi`` its closed rank
    interval, ``left``/``right``/``desc`` child links (−1 when absent),
    ``last`` flags last-dimension membership, ``nleaves`` the leaf count.
    Last-dimension nodes additionally carry ``row_off`` — the node's
    leaf rows as a contiguous ``(offset, nleaves)`` slice of the flat
    ``row_block`` (layout arithmetic at build time, no traversal at walk
    time).  Node aggregates live in exactly one of two columns, decided
    by the value column handed in: ``agg_mat`` (pre-encoded rows under
    ``agg_kernel``, §6c) for a typed
    :class:`~repro.semigroup.kernels.KernelColumn`, ``agg_obj`` (the
    semigroup's own Python values) otherwise.
    """

    __slots__ = (
        "d",
        "dim_ix",
        "lo",
        "hi",
        "left",
        "right",
        "desc",
        "last",
        "nleaves",
        "row_off",
        "row_block",
        "agg_kernel",
        "agg_mat",
        "agg_obj",
    )

    def __init__(self, **arrays: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, arrays.get(name))

    @property
    def size_nodes(self) -> int:
        return len(self.lo)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_ranks(
        cls,
        ranks: np.ndarray,
        values: Sequence[Any],
        semigroup: Semigroup,
        start_dim: int = 0,
    ) -> "CompiledForest":
        """The range tree over all rows of ``ranks``, dividing dimensions
        ``start_dim .. d−1``, emitted directly as arrays.

        Trees are built a *batch* at a time: ``k`` equal-width trees of
        one dimension are one ``argsort(axis=1)`` plus a few scatters
        through the memoized ``(w, r)`` layout, and the descendant trees
        of their level-``l`` nodes are the next batch,
        ``rows.reshape(k·2^l, w/2^l)``.
        """
        ranks = np.asarray(ranks, dtype=_I64)
        m, d = ranks.shape
        require_power_of_two("range tree point count", m)
        n, nrows = _sizes(m, d - start_dim)
        dim_ix = np.full(n, d - 1, dtype=_I64)
        lo = np.empty(n, dtype=_I64)
        hi = np.empty(n, dtype=_I64)
        left = np.empty(n, dtype=_I64)
        right = np.empty(n, dtype=_I64)
        desc = np.full(n, -1, dtype=_I64)
        last = np.ones(n, dtype=bool)
        nleaves = np.empty(n, dtype=_I64)
        row_off = np.zeros(n, dtype=_I64)
        row_block = np.empty(nrows, dtype=_I64)

        # a batch: (rows (k, w), dimension, first node id (k,), first row (k,))
        zero = np.zeros(1, dtype=_I64)
        batches = [(np.arange(m, dtype=_I64)[None, :], start_dim, zero, zero)]
        while batches:
            rows, dim, base, rbase = batches.pop()
            k, w = rows.shape
            keys = ranks[rows, dim]
            # stable, as the per-tree argsort of the object builder
            order = np.argsort(keys, axis=1, kind="stable")
            rows = np.take_along_axis(rows, order, axis=1)
            keys = np.take_along_axis(keys, order, axis=1)
            if dim == d - 1:
                # preorder within a last-dimension tree makes the links
                # arithmetic: left = id + 1, right = id + nleaves
                _heap, s_arr, w_arr = _preorder_layout(w)
                gids = base[:, None] + np.arange(2 * w - 1, dtype=_I64)
                flat = gids.ravel()
                nleaves[flat] = np.broadcast_to(w_arr, gids.shape).ravel()
                row_off[flat] = (rbase[:, None] + s_arr).ravel()
                internal = w_arr > 1
                left[flat] = np.where(internal, gids + 1, -1).ravel()
                right[flat] = np.where(internal, gids + w_arr, -1).ravel()
                lo[flat] = keys[:, s_arr].ravel()
                hi[flat] = keys[:, s_arr + w_arr - 1].ravel()
                row_block[
                    (rbase[:, None] + np.arange(w, dtype=_I64)).ravel()
                ] = rows.ravel()
                continue
            node_offs, row_offs = _primary_layout(w, d - dim)
            for level, (noff, roff) in enumerate(zip(node_offs, row_offs)):
                v = w >> level
                ids = (base[:, None] + noff).ravel()
                dim_ix[ids] = dim
                last[ids] = False
                nleaves[ids] = v
                lo[ids] = keys[:, ::v].ravel()
                hi[ids] = keys[:, v - 1 :: v].ravel()
                # a selected node's descendant tree is emitted before
                # anything under its siblings (the emission-order theorem)
                desc[ids] = ids + 1
                if v > 1:
                    kids = base[:, None] + node_offs[level + 1]
                    left[ids] = kids[:, 0::2].ravel()
                    right[ids] = kids[:, 1::2].ravel()
                else:
                    left[ids] = right[ids] = -1
                batches.append(
                    (
                        rows.reshape(k << level, v),
                        dim + 1,
                        ids + 1,
                        (rbase[:, None] + roff).ravel(),
                    )
                )

        forest = cls(
            d=d,
            dim_ix=dim_ix,
            lo=lo,
            hi=hi,
            left=left,
            right=right,
            desc=desc,
            last=last,
            nleaves=nleaves,
            row_off=row_off,
            row_block=row_block,
        )
        forest.annotate(values, semigroup)
        return forest

    def _last_dim_classes(
        self,
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The last-dimension segment trees, one size class at a time.

        Yields ``(rows, gids, heap)`` per leaf count ``w``: the ``(k, w)``
        leaf rows of the class's ``k`` trees in last-dimension rank
        order, their ``(k, 2w − 1)`` node ids, and the heap id at each
        preorder position — all read back from the held topology, so a
        build and a refit annotate through the same child pairs.
        """
        # a last-dimension tree hangs off a node of dimension d−2 — or is
        # the whole structure, when only the last dimension is divided
        roots = self.desc[~self.last]
        roots = roots[self.last[roots]] if len(roots) else np.zeros(1, dtype=_I64)
        widths = self.nleaves[roots]
        for w in np.unique(widths).tolist():
            sel = roots[widths == w]
            heap, _start, _width = _preorder_layout(w)
            rows = self.row_block[
                self.row_off[sel][:, None] + np.arange(w, dtype=_I64)
            ]
            yield rows, sel[:, None] + np.arange(2 * w - 1, dtype=_I64), heap

    def annotate(self, values: Sequence[Any], semigroup: Semigroup) -> None:
        """(Re)compute every last-dimension node's aggregate ``f(v)`` over
        the held topology and rebind the aggregate columns.

        Step 1 of Algorithm AssociativeFunction: O(s) work, no topology
        touched.  Each size class of last-dimension trees folds as one
        stack — thousands of mostly tiny trees would drown per-tree numpy
        calls — combining the same child pairs as a per-node bottom-up
        ``combine`` loop, hence bit-identical values.
        """
        n = self.size_nodes
        if isinstance(values, KernelColumn):
            kernel = values.kernel
            agg_mat = np.zeros((n, kernel.width), dtype=kernel.dtype)
            for rows, gids, heap in self._last_dim_classes():
                heaps = batched_heap_fold(kernel, values.data[rows])
                agg_mat[gids.ravel()] = heaps[:, heap].reshape(-1, kernel.width)
            self.agg_kernel, self.agg_mat, self.agg_obj = kernel, agg_mat, None
            return
        leaves = np.empty(len(values), dtype=object)
        for i, v in enumerate(values):
            leaves[i] = v
        combine = np.frompyfunc(semigroup.combine, 2, 1)
        agg_obj = np.empty(n, dtype=object)
        for rows, gids, heap in self._last_dim_classes():
            k, w = rows.shape
            heaps = np.empty((k, 2 * w), dtype=object)
            heaps[:, w:] = leaves[rows]
            pos = w
            while pos > 1:
                half = pos >> 1
                heaps[:, half:pos] = combine(
                    heaps[:, pos : 2 * pos : 2], heaps[:, pos + 1 : 2 * pos : 2]
                )
                pos = half
            agg_obj[gids.ravel()] = heaps[:, heap].ravel()
        self.agg_kernel, self.agg_mat, self.agg_obj = None, None, agg_obj

    # ------------------------------------------------------------------
    # the batched walk
    # ------------------------------------------------------------------
    def walk(
        self, los: np.ndarray, his: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Canonical selections for a whole batch of rank boxes at once.

        ``los``/``his`` are ``(nq, d)`` int64 closed bounds.  Returns
        ``(sel_q, sel_n, visits)``: the selected last-dimension node ids
        per query, lexsorted to the object walk's exact emission order,
        and per-box visited-node counts with
        :meth:`~repro.seq.segment_tree.SegTree.decompose_counted`'s
        semantics (children join the frontier only if they overlap, so
        only per-tree roots can die; empty boxes visit nothing).
        """
        nq = len(los)
        visits = np.zeros(nq, dtype=_I64)
        if nq:
            fq = np.nonzero((los <= his).all(axis=1))[0].astype(_I64)
        else:
            fq = np.empty(0, dtype=_I64)
        fn = np.zeros(len(fq), dtype=_I64)
        sel_q_parts: List[np.ndarray] = []
        sel_n_parts: List[np.ndarray] = []
        while len(fq):
            visits += np.bincount(fq, minlength=nq)
            dims = self.dim_ix[fn]
            a = los[fq, dims]
            b = his[fq, dims]
            nlo = self.lo[fn]
            nhi = self.hi[fn]
            alive = ~((b < nlo) | (nhi < a))  # only roots can die
            selm = alive & (a <= nlo) & (nhi <= b)
            lastm = self.last[fn]
            hit = selm & lastm  # dimension-d canonical selection
            down = selm & ~lastm  # selected earlier: descend
            split = alive & ~selm  # partial overlap: try both children
            if hit.any():
                sel_q_parts.append(fq[hit])
                sel_n_parts.append(fn[hit])
            sq = fq[split]
            a2 = a[split]
            b2 = b[split]
            ln = self.left[fn[split]]
            rn = self.right[fn[split]]
            # decompose_counted pushes a child only when it overlaps —
            # the pre-check that keeps visit counts bit-identical
            lkeep = ~((b2 < self.lo[ln]) | (self.hi[ln] < a2))
            rkeep = ~((b2 < self.lo[rn]) | (self.hi[rn] < a2))
            fq = np.concatenate([fq[down], sq[lkeep], sq[rkeep]])
            fn = np.concatenate(
                [self.desc[fn[down]], ln[lkeep], rn[rkeep]]
            )
        if sel_q_parts:
            sel_q = np.concatenate(sel_q_parts)
            sel_n = np.concatenate(sel_n_parts)
        else:
            sel_q = np.empty(0, dtype=_I64)
            sel_n = np.empty(0, dtype=_I64)
        order = np.lexsort((sel_n, sel_q))
        return sel_q[order], sel_n[order], visits

    def rows_flat(
        self, sel_n: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Leaf rows under each selected node, concatenated.

        ``lengths`` is the per-selection row count to take (``nleaves``
        of the node, or 0 to skip a selection); each selection's rows
        are the ``(row_off, length)`` slice of ``row_block`` — one fancy
        gather, no traversal.
        """
        offsets = np.zeros(len(sel_n) + 1, dtype=_I64)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        if not total:
            return np.empty(0, dtype=_I64)
        return self.row_block[
            np.arange(total, dtype=_I64)
            - np.repeat(offsets[:-1], lengths)
            + np.repeat(self.row_off[sel_n], lengths)
        ]

    def decode_aggs(self, sel_n: np.ndarray) -> List[Any]:
        """The semigroup values of selected nodes, in order — exactly
        what :meth:`~repro.seq.range_tree.CanonicalSelection.agg` reads
        off the object tree, typed or object aggregates alike."""
        if self.agg_kernel is None:
            return self.agg_obj[sel_n].tolist()
        return self.agg_kernel.decode_list(self.agg_mat[sel_n])

    def root_agg(self) -> Any:
        """Aggregate over all points of the tree: the root of the
        last-dimension tree reached through the root's descendant
        links (``desc = id + 1``, one hop per earlier dimension)."""
        return self.decode_aggs([self.d - 1 - int(self.dim_ix[0])])[0]
