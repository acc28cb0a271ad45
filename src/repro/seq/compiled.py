"""The compiled range tree: struct-of-arrays lowering + batched walks.

The canonical walk (:meth:`repro.seq.range_tree.RangeTree.canonical_pairs`)
chases Python objects one query at a time; it is the reference.  A range
tree's topology is *fixed* after construction (refits replace
aggregates, never structure), so it lowers once into flat arrays and
every batch of boxes — the sequential ``*_many`` queries and Search
step 5 alike — walks it as level-by-level numpy frontier expansion.

Two invariants make the lowering exact, mirroring ``CompiledHat``:

* **Emission order.**  Node ids are assigned in the object walk's own
  DFS emission order — ``order(v) = [v] + order(descendant tree of v) +
  order(left subtree) + order(right subtree)`` — so each query's
  selection order is monotone in node id and one
  ``np.lexsort((node, query))`` reproduces the object walk's exact
  per-query emission order.
* **Visit accounting.**  :meth:`~repro.seq.segment_tree.SegTree.decompose_counted`
  pre-checks child overlap before pushing, so only roots of per-node
  walks can die; the frontier walk applies the same pre-check at push
  time, making ``np.bincount`` per-box visit totals equal the object
  walk's charged counts exactly.

Within one last-dimension segment tree the DFS order is plain preorder,
which makes the child links arithmetic (``left = id + 1``,
``right = id + width``); only the minority of earlier-dimension nodes is
walked in Python at compile time, and each last-dimension size class is
filled with a handful of vectorized gathers (the same batching trick as
kernel annotation).

``tests/test_compiled_forest.py`` pins the batched walk against the
per-box reference walk: same selections, same order, same visit counts.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Any, List, Sequence, Tuple

import numpy as np

from ..semigroup.kernels import KernelAggs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from .range_tree import DimTree, RangeTree

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


class CompiledForest:
    """A range tree lowered to flat arrays, walked for many boxes at once.

    Per node (global DFS emission-order id): ``dim_ix`` the absolute
    dimension compared at that node, ``lo``/``hi`` its closed rank
    interval, ``left``/``right``/``desc`` child links (−1 when absent),
    ``last`` flags last-dimension membership, ``nleaves`` the leaf count.
    Last-dimension nodes additionally carry ``tree_of``/``heap`` (the
    owning :class:`~repro.seq.range_tree.DimTree` and its heap id, for
    aggregate reads) and ``row_off`` — the node's leaf rows as a
    contiguous ``(offset, nleaves)`` slice of the flat ``row_block``
    (heap arithmetic at compile time, no traversal at walk time).  When
    every last-dimension tree is kernel-annotated (§6c), ``agg_mat``
    snapshots all node aggregates as one pre-encoded matrix sliced per
    canonical selection; otherwise ``agg_kernel is None`` and consumers
    decode through ``trees[tree_of].aggs[heap]``.
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
        "tree_of",
        "heap",
        "row_off",
        "row_block",
        "trees",
        "agg_kernel",
        "agg_mat",
    )

    def __init__(self, **arrays: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, arrays[name])

    @property
    def size_nodes(self) -> int:
        return len(self.lo)

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, rt: "RangeTree") -> "CompiledForest":
        """Lower ``rt`` into DFS emission-ordered arrays (one pass)."""
        d = rt.d
        last_dim = d - 1
        counter = 0
        row_base = 0
        #: (tree, first node id, first row_block offset) per last-dim tree
        blocks: List[Tuple["DimTree", int, int]] = []
        # earlier-dimension nodes, recorded by the Python DFS (a
        # minority: ~2m of the ~2m·log m total nodes per element)
        nl_id: List[int] = []
        nl_dim: List[int] = []
        nl_lo: List[int] = []
        nl_hi: List[int] = []
        nl_w: List[int] = []
        nl_left: List[int] = []
        nl_right: List[int] = []
        nl_desc: List[int] = []

        def visit_tree(t: "DimTree") -> int:
            nonlocal counter, row_base
            if t.dim == last_dim:
                base = counter
                counter += 2 * t.seg.m - 1
                blocks.append((t, base, row_base))
                row_base += t.seg.m
                return base
            return visit(t, 1, 0, t.seg.m)

        def visit(t: "DimTree", h: int, s: int, w: int) -> int:
            nonlocal counter
            i = counter
            counter += 1
            pos = len(nl_id)
            ranks = t.seg.ranks
            nl_id.append(i)
            nl_dim.append(t.dim)
            nl_lo.append(int(ranks[s]))
            nl_hi.append(int(ranks[s + w - 1]))
            nl_w.append(w)
            nl_left.append(-1)
            nl_right.append(-1)
            # number the descendant tree before the children: the object
            # walk emits a selected node's descendants before anything
            # under its siblings (the emission-order theorem)
            assert t.descendants is not None
            nl_desc.append(-1)
            nl_desc[pos] = visit_tree(t.descendants[h])
            if w > 1:
                half = w >> 1
                nl_left[pos] = visit(t, 2 * h, s, half)
                nl_right[pos] = visit(t, 2 * h + 1, s + half, half)
            return i

        visit_tree(rt.root_tree)

        n = counter
        dim_ix = np.full(n, last_dim, dtype=_I64)
        lo = np.empty(n, dtype=_I64)
        hi = np.empty(n, dtype=_I64)
        left = np.empty(n, dtype=_I64)
        right = np.empty(n, dtype=_I64)
        desc = np.full(n, -1, dtype=_I64)
        last = np.ones(n, dtype=bool)
        nleaves = np.empty(n, dtype=_I64)
        tree_of = np.full(n, -1, dtype=_I64)
        heap = np.zeros(n, dtype=_I64)
        row_off = np.zeros(n, dtype=_I64)
        row_block = np.empty(row_base, dtype=_I64)

        if nl_id:
            ids = np.asarray(nl_id, dtype=_I64)
            dim_ix[ids] = nl_dim
            lo[ids] = nl_lo
            hi[ids] = nl_hi
            left[ids] = nl_left
            right[ids] = nl_right
            desc[ids] = nl_desc
            last[ids] = False
            nleaves[ids] = nl_w

        trees = [t for t, _base, _rb in blocks]
        kernel = None
        agg_mat = None
        if blocks and all(
            isinstance(t.aggs, KernelAggs) for t, _b, _r in blocks
        ):
            k0 = blocks[0][0].aggs.kernel  # type: ignore[union-attr]
            if all(
                t.aggs.kernel is k0 or t.aggs.kernel == k0  # type: ignore[union-attr]
                for t, _b, _r in blocks
            ):
                kernel = k0
                agg_mat = np.zeros((n, k0.width), dtype=k0.dtype)

        # fill the last-dimension blocks one *size class* at a time:
        # trees of equal m share a preorder layout, so the whole class
        # lands with a few broadcast gathers instead of per-tree loops
        by_m: dict = {}
        for ti, (t, base, rb) in enumerate(blocks):
            by_m.setdefault(t.seg.m, []).append((ti, t, base, rb))
        for m, group in by_m.items():
            pre, s_arr, w_arr = _preorder_layout(m)
            size = 2 * m - 1
            k = len(group)
            bases = np.asarray([b for _ti, _t, b, _rb in group], dtype=_I64)
            rbases = np.asarray([rb for _ti, _t, _b, rb in group], dtype=_I64)
            tids = np.asarray([ti for ti, _t, _b, _rb in group], dtype=_I64)
            gids = bases[:, None] + np.arange(size, dtype=_I64)[None, :]
            flat = gids.ravel()
            heap[flat] = np.broadcast_to(pre, (k, size)).ravel()
            tree_of[flat] = np.repeat(tids, size)
            nleaves[flat] = np.broadcast_to(w_arr, (k, size)).ravel()
            row_off[flat] = (rbases[:, None] + s_arr[None, :]).ravel()
            internal = w_arr > 1
            left[flat] = np.where(
                internal[None, :], gids + 1, -1
            ).ravel()
            right[flat] = np.where(
                internal[None, :], gids + w_arr[None, :], -1
            ).ravel()
            orders = (
                group[0][1].order.reshape(1, m)
                if k == 1
                else np.stack([t.order for _ti, t, _b, _rb in group])
            )
            row_block[
                (rbases[:, None] + np.arange(m, dtype=_I64)).ravel()
            ] = orders.ravel()
            ranks = rt.ranks[orders, last_dim]
            lo[flat] = ranks[:, s_arr].ravel()
            hi[flat] = ranks[:, s_arr + w_arr - 1].ravel()
            if agg_mat is not None:
                # one 3-D gather per shared fold block (usually one per
                # size class — the batched annotation stacks them)
                by_block: dict = {}
                for gi, (_ti, t, _b, _rb) in enumerate(group):
                    a = t.aggs
                    ent = by_block.get(id(a.block))  # type: ignore[union-attr]
                    if ent is None:
                        by_block[id(a.block)] = ent = (a.block, [], [])  # type: ignore[union-attr]
                    ent[1].append(gi)
                    ent[2].append(a.plane)  # type: ignore[union-attr]
                for blk, gis, planes in by_block.values():
                    rows = blk[
                        np.asarray(planes, dtype=_I64)[:, None], pre[None, :]
                    ]
                    agg_mat[gids[gis].ravel()] = rows.reshape(-1, kernel.width)

        return cls(
            d=d,
            dim_ix=dim_ix,
            lo=lo,
            hi=hi,
            left=left,
            right=right,
            desc=desc,
            last=last,
            nleaves=nleaves,
            tree_of=tree_of,
            heap=heap,
            row_off=row_off,
            row_block=row_block,
            trees=trees,
            agg_kernel=kernel,
            agg_mat=agg_mat,
        )

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

    def tile_positions(
        self, sel_n: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Flat ``row_block`` positions of each selection's leaf tiling.

        ``lengths`` is the per-selection row count to take (``nleaves``
        of the node, or 0 to skip a selection); the result indexes
        ``row_block`` — or any same-layout flat block, like an element's
        pid tiling — with one fancy gather, no traversal.
        """
        offsets = np.zeros(len(sel_n) + 1, dtype=_I64)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        if not total:
            return np.empty(0, dtype=_I64)
        return (
            np.arange(total, dtype=_I64)
            - np.repeat(offsets[:-1], lengths)
            + np.repeat(self.row_off[sel_n], lengths)
        )

    def rows_flat(
        self, sel_n: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Leaf rows under each selected node, concatenated — the
        tiling-arithmetic twin of per-selection ``rows_under`` calls."""
        return self.row_block[self.tile_positions(sel_n, lengths)]

    def decode_aggs(self, sel_n: np.ndarray) -> List[Any]:
        """Decoded aggregate values for selected nodes, in order.

        Decodes exactly like
        :meth:`~repro.seq.range_tree.CanonicalSelection.agg` — through
        each owning tree's ``aggs`` store — so the values are
        bit-identical to the reference walk's whether the tree holds
        typed or object aggregates.
        """
        trees = self.trees
        tof = self.tree_of
        hp = self.heap
        return [
            trees[int(tof[j])].aggs[int(hp[j])] for j in sel_n  # type: ignore[index]
        ]

