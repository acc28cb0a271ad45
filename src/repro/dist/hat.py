"""The hat: the replicated top of the distributed range tree (§4, Figure 3).

Cutting every segment tree of the d-dimensional range tree at level
``log2(n/p)`` yields the **hat** — the union of the top ``log p`` levels
of the primary tree, of the descendant trees of its internal nodes, of
*their* internal nodes' descendants, and so on (Definition 3).  Theorem 1
bounds its size by ``O(p log^{d-1} p)`` nodes, small enough to replicate
on every processor; its leaves (the *hat leaves*) name exactly the forest
elements, whose roots they are.

A :class:`Hat` is held in exactly one form: flat per-node columns, one
row per node.  :meth:`Hat.build` emits them deterministically from the
:class:`~repro.dist.records.ForestRootInfo` summaries broadcast in
Construct step 5: hat-leaf segments, leaf counts, aggregates and owner
locations come from the roots; internal nodes are derived bottom-up
(segment = union of children, ``f(v) = f(left) ⊕ f(right)``).  Because
the node labeling (§3, Definition 2) is pure arithmetic, every processor
emits bit-identical columns with no further communication, and a refit
(:meth:`Hat.refresh_aggregates`) rebinds the aggregate column alone.

:meth:`Hat.walk_batch` is step 1 of Algorithm Search for a whole query
slice: the four-case segment tree walk (§4) as a frontier expansion over
the columns, emitting dimension-``d`` selections for nodes resolved
within the hat and subquery continuations for walks that reach a hat
leaf and must proceed inside a forest element.  :meth:`Hat.walk` is the
same walk one query and one node at a time — the reference the batched
walk is pinned against.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

import numpy as np

from .._util import ilog2, require_power_of_two, slice_positions
from ..cgm.columns import RecordBatch, obj_col
from ..errors import MachineError, ProtocolError
from ..geometry.box import RankBox
from ..semigroup import Semigroup
from ..semigroup.kernels import KernelColumn
from .labeling import Path, make_path
from .records import (
    KIND_EXPAND,
    KIND_SUBQUERY,
    ForestRootInfo,
    flatten_path,
    unflatten_path,
)

__all__ = ["Hat"]


def _fold(
    semigroup: Semigroup, aggs: List[Any], left: Sequence[int], right: Sequence[int]
) -> tuple:
    """``(agg_kernel, agg_mat, agg_obj)`` for leaf-seeded ``aggs``.

    Children follow their parent in row order, so one backward sweep
    folds every child pair before its parent reads it.  The column is
    typed when the semigroup names a kernel.
    """
    for i in range(len(aggs) - 1, -1, -1):
        if left[i] >= 0:
            aggs[i] = semigroup.combine(aggs[left[i]], aggs[right[i]])
    kernel = semigroup.kernel
    if kernel is not None:
        return kernel, kernel.encode(aggs), None
    return None, None, obj_col(aggs)


def _agg_column(kernel: Any, mat: Any, obj: Any, rows: Any) -> Any:
    """Rows of an aggregate column as a selection batch's ``agg`` column."""
    return obj[rows] if mat is None else KernelColumn(kernel, mat[rows])


class Hat:
    """The replicated hat of the distributed tree (Definition 3, Figure 3).

    One row per node, in the order the walk emits: ``order(v) = [v] +
    order(v's descendant tree) + order(left subtree) + order(right
    subtree)`` — so per-query emission order is monotone in row number
    and one ``lexsort((node, query))`` orders a batch's output.

    Per node: ``dim``, the closed rank interval ``lo``/``hi`` covered in
    that dimension (the tightest cover of its points' ranks — exact for
    the four-case walk even though descendant trees hold non-contiguous
    rank subsets), ``nleaves``, ``leaf``/``last_dim`` flags, the
    ``left``/``right`` children and the ``desc`` pointer of Definition 1
    (row numbers, −1 when absent), the owner ``location`` of the forest
    element rooted at a hat leaf and its index ``tree`` in the owner's
    stack for the leaf's dimension (both −1 on internal nodes), and the
    Definition 2 name as a row of ``paths`` (``−1``-padded to ``2d``
    ints; a dimension-``k`` node's label is its first ``2(k+1)``).  A
    row number is the node's name in every Search stream — the hat is
    bit-identical on every processor — and a hat-leaf row names the
    forest element rooted there.  Every dimension-``d``
    node's hat leaves, left to right, are the rows
    ``tile_leaf_ids[tile_off : tile_off + tile_len]``.  The ``f(v)``
    annotations are held once: ``agg_mat`` (rows encoded under
    ``agg_kernel``) when the semigroup has a kernel, ``agg_obj`` (its
    own Python values) otherwise.  ``idle`` is the walk's output for an
    empty query slice, typed like any other.
    """

    def __init__(self, **columns: Any) -> None:
        self.__dict__.update(columns)

    # ------------------------------------------------------------------
    # construction from broadcast forest roots (Construct step 5)
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        roots: Sequence[ForestRootInfo],
        d: int,
        n: int,
        p: int,
        semigroup: Semigroup,
    ) -> "Hat":
        """Deterministically emit the hat from the forest root summaries.

        Raises :class:`~repro.errors.ProtocolError` when the provided
        roots do not tile the structure the labeling arithmetic predicts
        for ``(n, p, d)`` — a missing, duplicated, or mislabeled root
        means the construction protocol was violated on some processor.
        """
        if not roots:
            raise MachineError("cannot build a hat from zero forest roots")
        require_power_of_two("processor count p", p)
        require_power_of_two("point count n", n)
        if p > n:
            raise MachineError(f"p={p} exceeds the padded point count n={n}")
        if d < 1:
            raise MachineError(f"dimension must be positive, got {d}")

        by_path: dict[Path, ForestRootInfo] = {}
        for info in roots:
            if info.path in by_path:
                raise ProtocolError(f"duplicate forest roots for {info.path}")
            by_path[info.path] = info

        leaf_level = ilog2(n) - ilog2(p)
        dim: List[int] = []
        lo: List[int] = []
        hi: List[int] = []
        nleaves: List[int] = []
        left: List[int] = []
        right: List[int] = []
        desc: List[int] = []
        location: List[int] = []
        tree: List[int] = []
        tile_off: List[int] = []
        tile_len: List[int] = []
        tile_leaf_ids: List[int] = []
        paths: List[Path] = []
        aggs: List[Any] = []

        def emit(idx: int, lvl: int, k: int, tree_id: Path) -> int:
            """Append node ``(idx, lvl)`` of tree ``tree_id`` and all below it."""
            i = len(paths)
            path = make_path(idx, lvl, tree_id)
            paths.append(path)
            dim.append(k)
            tile_off.append(len(tile_leaf_ids) if k == d - 1 else 0)
            for col in (lo, hi, nleaves, left, right, desc, location, tree, tile_len):
                col.append(-1)
            aggs.append(None)
            if lvl == leaf_level:
                info = by_path.pop(path, None)
                if info is None:
                    raise ProtocolError(
                        f"forest roots incomplete: no root for hat leaf {path}"
                    )
                lo[i], hi[i] = info.seg
                nleaves[i], location[i], tree[i] = info.nleaves, info.location, info.tree
                aggs[i] = info.agg
                if k == d - 1:
                    tile_leaf_ids.append(i)
            else:
                if k < d - 1:
                    # a descendant root inherits its anchor's label (Definition 2(ii))
                    desc[i] = emit(idx, lvl, k + 1, path)
                left[i] = emit(2 * idx, lvl - 1, k, tree_id)
                right[i] = emit(2 * idx + 1, lvl - 1, k, tree_id)
                lo[i], hi[i] = lo[left[i]], hi[right[i]]
                nleaves[i] = nleaves[left[i]] + nleaves[right[i]]
            tile_len[i] = len(tile_leaf_ids) - tile_off[i] if k == d - 1 else 0
            return i

        emit(1, ilog2(n), 0, ())
        if by_path:
            raise ProtocolError(
                "forest roots do not match the hat structure; unexpected: "
                f"{sorted(by_path)[:3]}"
            )
        agg_kernel, agg_mat, agg_obj = _fold(semigroup, aggs, left, right)
        ints = dict(
            dim=dim, lo=lo, hi=hi, nleaves=nleaves, left=left, right=right, desc=desc,
            location=location, tree=tree, tile_off=tile_off, tile_len=tile_len,
            tile_leaf_ids=tile_leaf_ids,
        )
        cols = {name: np.asarray(col, dtype=np.int64) for name, col in ints.items()}
        path_mat = np.full((len(paths), 2 * d), -1, dtype=np.int64)
        for i, path in enumerate(paths):
            path_mat[i, : 2 * len(path)] = flatten_path(path)
        hat = cls(
            d=d,
            n=n,
            p=p,
            leaf_level=leaf_level,  # the cut level log2(n/p) of every hat leaf
            semigroup=semigroup,
            leaf=cols["left"] < 0,
            last_dim=cols["dim"] == d - 1,
            paths=path_mat,
            agg_kernel=agg_kernel,
            agg_mat=agg_mat,
            agg_obj=agg_obj,
            **cols,
        )
        # What a rank holding no queries returns: the walk's own output
        # for an empty slice, computed once (zero-row columns, nothing in
        # them to mutate) so an idle rank does no numpy work per pass.
        none = np.zeros((0, d), dtype=np.int64)
        hat.idle = hat._walk_rows(0, none, none, np.zeros(0, dtype=bool))
        return hat

    # ------------------------------------------------------------------
    # introspection (Theorem 1 / Figure 3 measurements)
    # ------------------------------------------------------------------
    def size_nodes(self) -> int:
        """Total node count ``|H|`` (Theorem 1: ``O(p log^{d-1} p)``)."""
        return len(self.dim)

    def segment_tree_count(self) -> int:
        """Number of distinct segment trees spanning the hat."""
        return 1 + int((self.desc >= 0).sum())

    def path(self, i: int) -> Path:
        """The Definition 2 name of node ``i``."""
        return unflatten_path(self.paths[i, : 2 * (int(self.dim[i]) + 1)])

    def agg(self, i: int) -> Any:
        """The annotation ``f(v)`` of node ``i`` as a semigroup value."""
        if self.agg_mat is None:
            return self.agg_obj[i]
        return self.agg_kernel.decode(self.agg_mat, i)

    # ------------------------------------------------------------------
    # Algorithm Search step 1: the hat walk
    # ------------------------------------------------------------------
    def walk(
        self,
        qid: int,
        box: RankBox,
        report: bool = False,
        charge: Callable[[int], None] | None = None,
    ) -> Tuple[List[tuple], List[tuple], List[tuple]]:
        """Walk the hat for one rank-space query (§4's four cases).

        Returns ``(selections, subqueries, expansions)`` as the rows
        :meth:`walk_batch` packs: a ``(qid, node, nleaves, agg)`` per
        dimension-``d`` hat node whose segment is contained in the query
        (with its precomputed ``f(v)``), a ``(KIND_SUBQUERY, qid, los,
        his, element, location)`` continuation per hat leaf the walk
        reached, and — with ``report`` — a ``(KIND_EXPAND, qid, zeros,
        zeros, element, location)`` request per forest element tiling a
        selection's leaves, so report mode can expand it into point ids.
        ``charge`` (if given) receives the number of hat nodes visited —
        the O(log^d p) term of Theorem 3's work bound.
        """
        sels: List[tuple] = []
        subqs: List[tuple] = []
        exps: List[tuple] = []
        if box.is_empty():
            return sels, subqs, exps
        zeros = (0,) * self.d
        visited = 0
        stack = [0]
        while stack:
            i = stack.pop()
            visited += 1
            a, b = box.interval(int(self.dim[i]))
            v_lo, v_hi = int(self.lo[i]), int(self.hi[i])
            if b < v_lo or v_hi < a:
                continue  # die
            selected = a <= v_lo and v_hi <= b
            if selected and self.last_dim[i]:
                sels.append((qid, i, int(self.nleaves[i]), self.agg(i)))
                if report:
                    off = int(self.tile_off[i])
                    for l in self.tile_leaf_ids[off : off + int(self.tile_len[i])].tolist():
                        exps.append(
                            (KIND_EXPAND, qid, zeros, zeros, l, int(self.location[l]))
                        )
            elif self.leaf[i]:  # continue inside the forest element
                subqs.append(
                    (KIND_SUBQUERY, qid, box.los, box.his, i, int(self.location[i]))
                )
            elif selected:  # off the last dimension: descend
                stack.append(int(self.desc[i]))
            else:  # split
                stack.append(int(self.right[i]))
                stack.append(int(self.left[i]))
        if charge is not None:
            charge(visited)
        return sels, subqs, exps

    def walk_batch(
        self,
        qlo: int,
        los: np.ndarray,
        his: np.ndarray,
        report: np.ndarray,
    ) -> Tuple[RecordBatch, RecordBatch, RecordBatch, np.ndarray]:
        """Search step 1 for a whole query slice at once.

        ``los``/``his`` are the slice's int64 ``(nq, d)`` rank bounds
        (queries ``qlo .. qlo + nq - 1``), read in place, and ``report``
        its bool ``(nq,)`` slice of the pass's report mask.  Returns
        ``(selections, subqueries, expansions, visits)``: a
        ``dist.hat_selection`` batch of the dimension-``d`` selections
        (``agg`` a :class:`KernelColumn` when the hat is kernel-backed,
        an object column otherwise), two ``dist.search.routing`` batches
        — the surviving subqueries, and one expansion request per forest
        element tiling a selection whose query ``report`` marks — and
        the per-query visited-node counts for Theorem 3 ``charge``
        accounting (empty boxes visit nothing, as in :meth:`walk`).
        Each iteration classifies every live ``(query, node)`` pair into
        die/select/split/descend with array comparisons — row for row
        what :meth:`walk` emits per query.  An empty slice returns the
        shared zero-row :attr:`idle` output.
        """
        if not len(los):
            return self.idle
        return self._walk_rows(qlo, los, his, report)

    def _walk_rows(
        self,
        qlo: int,
        los: np.ndarray,
        his: np.ndarray,
        report: np.ndarray,
    ) -> Tuple[RecordBatch, RecordBatch, RecordBatch, np.ndarray]:
        nq = len(los)
        visits = np.zeros(nq, dtype=np.int64)

        # frontier: parallel (query, node) arrays; roots of non-empty boxes
        fq = np.nonzero((los <= his).all(axis=1))[0] if nq else np.empty(0, np.int64)
        fn = np.zeros(len(fq), dtype=np.int64)
        sel_q: List[np.ndarray] = []
        sel_n: List[np.ndarray] = []
        sub_q: List[np.ndarray] = []
        sub_n: List[np.ndarray] = []
        while len(fq):
            visits += np.bincount(fq, minlength=nq)
            dims = self.dim[fn]
            a = los[fq, dims]
            b = his[fq, dims]
            nlo = self.lo[fn]
            nhi = self.hi[fn]
            leaf = self.leaf[fn]
            alive = ~((b < nlo) | (nhi < a))  # ~die
            selm = alive & (a <= nlo) & (nhi <= b)
            hit = selm & self.last_dim[fn]  # dimension-d selection
            sub = alive & leaf & ~hit  # hat leaf: continue in the forest
            down = selm & ~hit & ~leaf  # selected off the last dim: descend
            split = alive & ~selm & ~leaf
            if hit.any():
                sel_q.append(fq[hit])
                sel_n.append(fn[hit])
            if sub.any():
                sub_q.append(fq[sub])
                sub_n.append(fn[sub])
            fq = np.concatenate([fq[down], fq[split], fq[split]])
            fn = np.concatenate(
                [self.desc[fn[down]], self.left[fn[split]], self.right[fn[split]]]
            )

        sq = np.concatenate(sel_q) if sel_q else np.empty(0, np.int64)
        sn = np.concatenate(sel_n) if sel_n else np.empty(0, np.int64)
        order = np.lexsort((sn, sq))
        sq, sn = sq[order], sn[order]
        uq = np.concatenate(sub_q) if sub_q else np.empty(0, np.int64)
        un = np.concatenate(sub_n) if sub_n else np.empty(0, np.int64)
        order = np.lexsort((un, uq))
        uq, un = uq[order], un[order]

        # expansions: each reporting selection's slice of its tree block
        lens = np.where(report[sq], self.tile_len[sn], 0)
        elements = self.tile_leaf_ids[slice_positions(self.tile_off[sn], lens)]
        selections = RecordBatch(
            "dist.hat_selection",
            {
                "qid": qlo + sq,
                "node": sn,
                "nleaves": self.nleaves[sn],
                "agg": _agg_column(self.agg_kernel, self.agg_mat, self.agg_obj, sn),
            },
            len(sq),
        )
        subqueries = self._routing(KIND_SUBQUERY, qlo + uq, los[uq], his[uq], un)
        none = np.zeros((len(elements), self.d), dtype=np.int64)
        expansions = self._routing(
            KIND_EXPAND, np.repeat(qlo + sq, lens), none, none, elements
        )
        return selections, subqueries, expansions, visits

    def _routing(self, kind: int, qid, los, his, element) -> RecordBatch:
        """A ``dist.search.routing`` batch aimed at ``element``'s owners."""
        return RecordBatch(
            "dist.search.routing",
            {
                "kind": np.full(len(qid), kind, dtype=np.int64),
                "qid": qid,
                "los": los,
                "his": his,
                "element": element,
                "location": self.location[element],
            },
            len(qid),
        )

    # ------------------------------------------------------------------
    # re-annotation support (Algorithm AssociativeFunction step 1)
    # ------------------------------------------------------------------
    def refresh_aggregates(
        self, roots: Sequence[ForestRootInfo], semigroup: Semigroup
    ) -> None:
        """Reseed hat-leaf aggregates from fresh forest roots and fold up.

        Local work only — the one communication round of re-annotation is
        the broadcast that delivered ``roots``.  The new column is folded
        aside and bound, with the ``idle`` output typed for it, in one
        assignment: a walk reads the old annotation or the new one.
        """
        by_path = {info.path: info for info in roots}
        aggs: List[Any] = [None] * self.size_nodes()
        for i in np.nonzero(self.leaf)[0].tolist():
            info = by_path.get(self.path(i))
            if info is None:
                raise ProtocolError(
                    f"re-annotation is missing forest root {self.path(i)}"
                )
            aggs[i] = info.agg
        kernel, mat, obj = _fold(
            semigroup, aggs, self.left.tolist(), self.right.tolist()
        )
        no_rows = _agg_column(kernel, mat, obj, slice(0, 0))
        idle = (self.idle[0].with_col("agg", no_rows), *self.idle[1:])
        self.semigroup, self.agg_kernel, self.agg_mat, self.agg_obj, self.idle = (
            semigroup, kernel, mat, obj, idle,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Hat(n={self.n}, p={self.p}, d={self.d}, "
            f"nodes={self.size_nodes()}, leaf_level={self.leaf_level})"
        )
