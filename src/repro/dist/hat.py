"""The hat: the replicated top of the distributed range tree (§4, Figure 3).

Cutting every segment tree of the d-dimensional range tree at level
``log2(n/p)`` yields the **hat** — the union of the top ``log p`` levels
of the primary tree, of the descendant trees of its internal nodes, of
*their* internal nodes' descendants, and so on (Definition 3).  Theorem 1
bounds its size by ``O(p log^{d-1} p)`` nodes, small enough to replicate
on every processor; its leaves (the *hat leaves*) name exactly the forest
elements, whose roots they are.

:meth:`Hat.build` reconstructs the whole hat deterministically from the
:class:`~repro.dist.records.ForestRootInfo` summaries broadcast in
Construct step 5: hat-leaf segments, leaf counts, aggregates, and owner
locations come from the roots; internal nodes are derived bottom-up
(segment = union of children, ``f(v) = f(left) ⊕ f(right)``).  Because
the node labeling (§3, Definition 2) is pure arithmetic, every processor
builds a bit-identical hat with no further communication.

:meth:`Hat.walk` is step 1 of Algorithm Search: the four-case segment
tree walk (§4) run entirely inside the hat, emitting dimension-``d``
selections for nodes resolved within the hat and
:class:`~repro.dist.records.Subquery` continuations for walks that reach
a hat leaf and must proceed inside a forest element.
"""

from __future__ import annotations

from typing import Any, Callable, Collection, Iterator, List, Sequence, Tuple

import numpy as np

from .._util import ilog2, require_power_of_two
from ..cgm.columns import Ragged, RecordBatch
from ..errors import MachineError, ProtocolError
from ..geometry.box import RankBox
from ..semigroup import Semigroup
from ..semigroup.kernels import KernelColumn, kernel_for
from .labeling import Path, TreeId, leaf_index, make_path, parent_index
from .records import ForestRootInfo, HatSelectionRecord, Subquery, flatten_path

__all__ = ["Hat", "HatNode", "CompiledHat"]


class HatNode:
    """One node of the hat (any dimension).

    ``index``/``level`` are the Definition 2 labels inside the node's own
    segment tree; ``path`` the global name; ``lo``/``hi`` the closed rank
    interval covered in the node's dimension (the tightest cover of its
    points' ranks — exact for the four-case walk even though descendant
    trees hold non-contiguous rank subsets).  Hat leaves additionally
    carry the ``location`` (owner rank) and ``group_rank`` of the forest
    element rooted at them; internal nodes of dimensions before the last
    carry the ``descendant`` pointer of Definition 1.
    """

    __slots__ = (
        "index",
        "level",
        "dim",
        "tree_id",
        "path",
        "lo",
        "hi",
        "nleaves",
        "agg",
        "is_hat_leaf",
        "left",
        "right",
        "descendant",
        "location",
        "group_rank",
    )

    def __init__(
        self,
        index: int,
        level: int,
        dim: int,
        tree_id: TreeId,
        lo: int,
        hi: int,
        nleaves: int,
        agg: Any,
        is_hat_leaf: bool,
        left: "HatNode | None" = None,
        right: "HatNode | None" = None,
        location: int | None = None,
        group_rank: int | None = None,
    ) -> None:
        self.index = index
        self.level = level
        self.dim = dim
        self.tree_id = tree_id
        self.path = make_path(index, level, tree_id)
        self.lo = lo
        self.hi = hi
        self.nleaves = nleaves
        self.agg = agg
        self.is_hat_leaf = is_hat_leaf
        self.left = left
        self.right = right
        self.descendant: HatNode | None = None
        self.location = location
        self.group_rank = group_rank

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "leaf" if self.is_hat_leaf else "node"
        return (
            f"HatNode({kind} dim={self.dim} idx={self.index} lvl={self.level} "
            f"seg=[{self.lo},{self.hi}] n={self.nleaves})"
        )


class Hat:
    """The replicated hat of the distributed tree (Definition 3, Figure 3)."""

    def __init__(
        self,
        root: HatNode,
        nodes_by_path: dict[Path, HatNode],
        d: int,
        n: int,
        p: int,
        leaf_level: int,
        semigroup: Semigroup,
    ) -> None:
        self.root = root
        self.nodes_by_path = nodes_by_path
        self.d = d
        self.n = n
        self.p = p
        self._leaf_level = leaf_level
        self.semigroup = semigroup
        #: struct-of-arrays lowering, built lazily (invalidated on refit)
        self._compiled: "CompiledHat | None" = None
        #: memoized leaf tilings, keyed by node path (structure never changes)
        self._leaves_under: dict[Path, List[HatNode]] = {}

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
        """Deterministically rebuild the hat from the forest root summaries.

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
        nodes: dict[Path, HatNode] = {}
        used: set[Path] = set()

        def build_tree(tree_id: TreeId, root_idx: int, root_lvl: int, dim: int) -> HatNode:
            width = 1 << (root_lvl - leaf_level)
            level_nodes: List[HatNode] = []
            for pos in range(width):
                idx = leaf_index(root_idx, root_lvl, leaf_level, pos)
                path = make_path(idx, leaf_level, tree_id)
                info = by_path.get(path)
                if info is None:
                    raise ProtocolError(
                        f"forest roots incomplete: no root for hat leaf {path}"
                    )
                used.add(path)
                node = HatNode(
                    index=idx,
                    level=leaf_level,
                    dim=dim,
                    tree_id=tree_id,
                    lo=info.seg[0],
                    hi=info.seg[1],
                    nleaves=info.nleaves,
                    agg=info.agg,
                    is_hat_leaf=True,
                    location=info.location,
                    group_rank=info.group_rank,
                )
                nodes[node.path] = node
                level_nodes.append(node)
            lvl = leaf_level
            internal: List[HatNode] = []
            while len(level_nodes) > 1:
                lvl += 1
                merged: List[HatNode] = []
                for i in range(0, len(level_nodes), 2):
                    lft, rgt = level_nodes[i], level_nodes[i + 1]
                    node = HatNode(
                        index=parent_index(lft.index),
                        level=lvl,
                        dim=dim,
                        tree_id=tree_id,
                        lo=lft.lo,
                        hi=rgt.hi,
                        nleaves=lft.nleaves + rgt.nleaves,
                        agg=semigroup.combine(lft.agg, rgt.agg),
                        is_hat_leaf=False,
                        left=lft,
                        right=rgt,
                    )
                    nodes[node.path] = node
                    merged.append(node)
                    internal.append(node)
                level_nodes = merged
            tree_root = level_nodes[0]
            if dim < d - 1:
                for node in internal:
                    node.descendant = build_tree(
                        node.path, node.index, node.level, dim + 1
                    )
            return tree_root

        root = build_tree((), 1, ilog2(n), 0)
        unexpected = set(by_path) - used
        if unexpected:
            raise ProtocolError(
                "forest roots do not match the hat structure; unexpected: "
                f"{sorted(unexpected)[:3]}"
            )
        return cls(
            root=root,
            nodes_by_path=nodes,
            d=d,
            n=n,
            p=p,
            leaf_level=leaf_level,
            semigroup=semigroup,
        )

    # ------------------------------------------------------------------
    # introspection (Theorem 1 / Figure 3 measurements)
    # ------------------------------------------------------------------
    @property
    def leaf_level(self) -> int:
        """The cut level ``log2(n/p)`` shared by every hat leaf."""
        return self._leaf_level

    def iter_nodes(self) -> Iterator[HatNode]:
        """Every hat node, across all dimensions."""
        return iter(self.nodes_by_path.values())

    def hat_leaves(self) -> List[HatNode]:
        """Every hat leaf — one per forest element, across all dimensions."""
        return [v for v in self.iter_nodes() if v.is_hat_leaf]

    def size_nodes(self) -> int:
        """Total node count ``|H|`` (Theorem 1: ``O(p log^{d-1} p)``)."""
        return len(self.nodes_by_path)

    def segment_tree_count(self) -> int:
        """Number of distinct segment trees spanning the hat."""
        return len({v.tree_id for v in self.iter_nodes()})

    def forest_leaves_under(self, node: HatNode) -> List[HatNode]:
        """Hat leaves of ``node``'s own segment tree below it, left to right.

        Memoized per node path: the hat's shape is fixed for the lifetime
        of the structure (refits replace aggregates, never topology), so
        report-mode walks stop re-traversing the subtree per selection.
        """
        cached = self._leaves_under.get(node.path)
        if cached is not None:
            return cached
        out: List[HatNode] = []
        stack = [node]
        while stack:
            v = stack.pop()
            if v.is_hat_leaf:
                out.append(v)
            else:
                stack.append(v.right)  # type: ignore[arg-type]
                stack.append(v.left)  # type: ignore[arg-type]
        self._leaves_under[node.path] = out
        return out

    def compiled(self) -> "CompiledHat":
        """The struct-of-arrays lowering of this hat, built once and cached.

        Safe under the in-process backends' shared-hat seeding: the
        compile is pure and the cache assignment atomic, so a racing
        rebuild only duplicates work, never mixes states.
        """
        c = self._compiled
        if c is None:
            c = CompiledHat.build(self)
            self._compiled = c
        return c

    # ------------------------------------------------------------------
    # Algorithm Search step 1: the hat walk
    # ------------------------------------------------------------------
    def walk(
        self,
        qid: int,
        box: RankBox,
        collect_leaves: bool = False,
        charge: Callable[[int], None] | None = None,
    ) -> Tuple[List[HatSelectionRecord], List[Subquery]]:
        """Walk the hat for one rank-space query (§4's four cases).

        Returns ``(selections, subqueries)``: the dimension-``d`` hat
        nodes whose segments are contained in the query (each with its
        precomputed ``f(v)``), and the continuations into forest elements
        for walks that reached a hat leaf.  With ``collect_leaves``, each
        selection also names the forest elements tiling its leaves so
        report mode can expand it into point ids.  ``charge`` (if given)
        receives the number of hat nodes visited — the O(log^d p) term of
        Theorem 3's work bound.
        """
        sels: List[HatSelectionRecord] = []
        subqs: List[Subquery] = []
        if box.is_empty():
            return sels, subqs
        visited = self._walk_tree(self.root, qid, box, collect_leaves, sels, subqs)
        if charge is not None and visited:
            charge(visited)
        return sels, subqs

    def _walk_tree(
        self,
        tree_root: HatNode,
        qid: int,
        box: RankBox,
        collect_leaves: bool,
        sels: List[HatSelectionRecord],
        subqs: List[Subquery],
    ) -> int:
        a, b = box.interval(tree_root.dim)
        last_dim = tree_root.dim == self.d - 1
        visited = 0
        stack = [tree_root]
        while stack:
            v = stack.pop()
            visited += 1
            if b < v.lo or v.hi < a:
                continue  # die
            if a <= v.lo and v.hi <= b:  # select
                if last_dim:
                    fids: Tuple[Path, ...] = ()
                    locs: Tuple[int, ...] = ()
                    if collect_leaves:
                        leaves = self.forest_leaves_under(v)
                        fids = tuple(l.path for l in leaves)
                        locs = tuple(l.location for l in leaves)  # type: ignore[misc]
                    sels.append(
                        HatSelectionRecord(
                            qid=qid,
                            path=v.path,
                            nleaves=v.nleaves,
                            agg=v.agg,
                            forest_ids=fids,
                            locations=locs,
                        )
                    )
                elif v.is_hat_leaf:
                    subqs.append(self._subquery(qid, box, v))
                else:
                    visited += self._walk_tree(
                        v.descendant, qid, box, collect_leaves, sels, subqs  # type: ignore[arg-type]
                    )
            else:  # split
                if v.is_hat_leaf:
                    subqs.append(self._subquery(qid, box, v))
                else:
                    stack.append(v.right)  # type: ignore[arg-type]
                    stack.append(v.left)  # type: ignore[arg-type]
        return visited

    @staticmethod
    def _subquery(qid: int, box: RankBox, leaf: HatNode) -> Subquery:
        return Subquery(
            qid=qid,
            los=box.los,
            his=box.his,
            forest_id=leaf.path,
            location=leaf.location,  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # re-annotation support (Algorithm AssociativeFunction step 1)
    # ------------------------------------------------------------------
    def refresh_aggregates(
        self, roots: Sequence[ForestRootInfo], semigroup: Semigroup
    ) -> None:
        """Reseed hat-leaf aggregates from fresh forest roots and fold up.

        Local work only — the one communication round of re-annotation is
        the broadcast that delivered ``roots``.
        """
        self.semigroup = semigroup
        by_path = {info.path: info for info in roots}
        for leaf in self.hat_leaves():
            info = by_path.get(leaf.path)
            if info is None:
                raise ProtocolError(f"re-annotation is missing forest root {leaf.path}")
            leaf.agg = info.agg
        self._refold(self.root)
        # the compiled lowering snapshots aggregates — stale snapshots
        # must never serve a batch after a refit
        self._compiled = None

    def _refold(self, node: HatNode) -> None:
        if not node.is_hat_leaf:
            self._refold(node.left)  # type: ignore[arg-type]
            self._refold(node.right)  # type: ignore[arg-type]
            node.agg = self.semigroup.combine(node.left.agg, node.right.agg)  # type: ignore[union-attr]
        if node.descendant is not None:
            self._refold(node.descendant)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Hat(n={self.n}, p={self.p}, d={self.d}, "
            f"nodes={self.size_nodes()}, leaf_level={self._leaf_level})"
        )


# ---------------------------------------------------------------------------
# the compiled hat: struct-of-arrays lowering + batched frontier walk
# ---------------------------------------------------------------------------
class CompiledHat:
    """The hat lowered to flat arrays, walked for all queries at once.

    Node ids are assigned in the *global DFS order* the object walk
    emits in — ``order(v) = [v] + order(v.descendant tree) + order(left
    subtree) + order(right subtree)`` — so per-query emission order is
    monotone in node id and one ``lexsort((node, query))`` reproduces
    the object walk's output order exactly.

    Per node: ``lo``/``hi``/``nleaves``/``location`` int64, ``leaf``/
    ``last_dim`` bool, ``left``/``right``/``desc`` child offsets (−1
    when absent; Definition 2's heap arithmetic fixes them at compile
    time).  Hat-leaf tilings are precomputed: for every dimension-``d``
    node, ``tile_off``/``tile_len`` slice the flat ``tile_leaf_ids``
    block of its tree (the leaves under ``(idx, lvl)`` are the
    contiguous heap range ``[idx << h, (idx+1) << h)`` at the cut
    level).  Aggregates ride as an object column plus, when the
    semigroup has a kernel, a typed matrix encoded once by it.

    :meth:`walk_batch` is Search step 1 as level-by-level numpy
    frontier expansion: each iteration classifies every live
    ``(query, node)`` pair into die/select/split/descend with array
    comparisons and appends straight into packed selection/subquery
    columns — bit-identical to :meth:`Hat.walk` run per query.
    """

    __slots__ = (
        "d",
        "leaf_level",
        "dim",
        "lo",
        "hi",
        "nleaves",
        "leaf",
        "last_dim",
        "left",
        "right",
        "desc",
        "location",
        "tile_off",
        "tile_len",
        "tile_leaf_ids",
        "paths",
        "agg_obj",
        "agg_kernel",
        "agg_mat",
        "idle",
    )

    def __init__(self, **arrays: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, arrays[name])

    @classmethod
    def build(cls, hat: Hat) -> "CompiledHat":
        """Lower ``hat`` into DFS-ordered arrays (one pass, no walks)."""
        d = hat.d
        leaf_lvl = hat.leaf_level
        nodes: List[HatNode] = []
        left: List[int] = []
        right: List[int] = []
        desc: List[int] = []
        tile_off: List[int] = []
        tile_len: List[int] = []
        tile_leaf_ids: List[int] = []

        def visit(v: HatNode, tlist: List[int]) -> int:
            i = len(nodes)
            nodes.append(v)
            tlist.append(i)
            left.append(-1)
            right.append(-1)
            desc.append(-1)
            tile_off.append(0)
            tile_len.append(0)
            if v.descendant is not None:
                desc[i] = visit_tree(v.descendant)
            if v.left is not None:
                left[i] = visit(v.left, tlist)
                right[i] = visit(v.right, tlist)  # type: ignore[arg-type]
            return i

        def visit_tree(root: HatNode) -> int:
            tlist: List[int] = []
            rid = visit(root, tlist)
            if root.dim == d - 1:
                # pre-order within one tree lists leaves left to right,
                # i.e. in heap-index order — so each node's tiling is a
                # contiguous slice of this tree's block
                base = len(tile_leaf_ids)
                leftmost = root.index << (root.level - leaf_lvl)
                for i in tlist:
                    if nodes[i].is_hat_leaf:
                        tile_leaf_ids.append(i)
                for i in tlist:
                    v = nodes[i]
                    h = v.level - leaf_lvl
                    tile_off[i] = base + ((v.index << h) - leftmost)
                    tile_len[i] = 1 << h
            return rid

        visit_tree(hat.root)

        location = np.fromiter(
            (-1 if v.location is None else v.location for v in nodes),
            dtype=np.int64,
            count=len(nodes),
        )
        agg_obj = np.empty(len(nodes), dtype=object)
        for i, v in enumerate(nodes):
            agg_obj[i] = v.agg
        agg_kernel = kernel_for(hat.semigroup)
        agg_mat = None
        if agg_kernel is not None:
            try:
                agg_mat = agg_kernel.encode([v.agg for v in nodes])
            except (TypeError, ValueError):
                agg_kernel = None
        compiled = cls(
            d=d,
            leaf_level=leaf_lvl,
            dim=np.fromiter((v.dim for v in nodes), np.int64, len(nodes)),
            lo=np.fromiter((v.lo for v in nodes), np.int64, len(nodes)),
            hi=np.fromiter((v.hi for v in nodes), np.int64, len(nodes)),
            nleaves=np.fromiter((v.nleaves for v in nodes), np.int64, len(nodes)),
            leaf=np.fromiter((v.is_hat_leaf for v in nodes), bool, len(nodes)),
            last_dim=np.fromiter((v.dim == d - 1 for v in nodes), bool, len(nodes)),
            left=np.asarray(left, dtype=np.int64),
            right=np.asarray(right, dtype=np.int64),
            desc=np.asarray(desc, dtype=np.int64),
            location=location,
            tile_off=np.asarray(tile_off, dtype=np.int64),
            tile_len=np.asarray(tile_len, dtype=np.int64),
            tile_leaf_ids=np.asarray(tile_leaf_ids, dtype=np.int64),
            paths=Ragged.from_rows([flatten_path(v.path) for v in nodes]),
            agg_obj=agg_obj,
            agg_kernel=agg_kernel,
            agg_mat=agg_mat,
            idle=None,
        )
        # What a rank holding no queries returns: the walk's own output
        # for an empty slice, computed once (zero-row columns, nothing in
        # them to mutate) so an idle rank does no numpy work per pass.
        none = np.zeros((0, d), dtype=np.int64)
        compiled.idle = compiled.walk_batch(0, none, none, False)
        return compiled

    @property
    def size_nodes(self) -> int:
        return len(self.dim)

    def walk_batch(
        self,
        qlo: int,
        los: np.ndarray,
        his: np.ndarray,
        collect: "bool | Collection[int]",
    ) -> Tuple[RecordBatch, RecordBatch, np.ndarray]:
        """Search step 1 for a whole query slice at once.

        ``los``/``his`` are the slice's int64 ``(nq, d)`` rank bounds
        (queries ``qlo .. qlo + nq - 1``), read in place.  Returns
        ``(selections, routing, visits)``: a
        ``dist.hat_selection_cols`` batch of the dimension-``d``
        selections (leaf tilings materialized only for queries in
        ``collect``), a ``dist.search.routing`` batch of the surviving
        subqueries (byte-identical to the per-record pack), and the
        per-query visited-node counts for Theorem 3 ``charge``
        accounting (empty boxes visit nothing, as in :meth:`Hat.walk`).
        An empty slice returns the shared zero-row :attr:`idle` triple.
        """
        nq = len(los)
        if not nq and self.idle is not None:
            return self.idle
        if isinstance(collect, bool):
            cmask = np.full(nq, collect, dtype=bool)
        else:
            ids = np.fromiter(collect, np.int64, len(collect))
            cmask = np.isin(qlo + np.arange(nq, dtype=np.int64), ids)
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

        # selections: tilings gathered as flat slices of the tree blocks
        lens = np.where(cmask[sq], self.tile_len[sn], 0) if len(sq) else np.empty(0, np.int64)
        offsets = np.zeros(len(sq) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        total = int(offsets[-1])
        if total:
            pos = (
                np.arange(total, dtype=np.int64)
                - np.repeat(offsets[:-1], lens)
                + np.repeat(self.tile_off[sn], lens)
            )
            leaf_ids = self.tile_leaf_ids[pos]
            loc_flat = self.location[leaf_ids]
        else:
            loc_flat = np.empty(0, dtype=np.int64)
        sel_cols = {
            "qid": qlo + sq,
            "path": self.paths.take(sn),
            "nleaves": self.nleaves[sn],
            "agg": self.agg_obj[sn],
            "locations": Ragged(loc_flat, offsets),
        }
        if self.agg_kernel is not None:
            sel_cols["kenc"] = KernelColumn(self.agg_kernel, self.agg_mat[sn])
        selections = RecordBatch("dist.hat_selection_cols", sel_cols, len(sq))

        routing = RecordBatch(
            "dist.search.routing",
            {
                "kind": np.zeros(len(uq), dtype=np.int64),
                "qid": qlo + uq,
                "los": los[uq],
                "his": his[uq],
                "forest_id": self.paths.take(un),
                "location": self.location[un],
            },
            len(uq),
        )
        return selections, routing, visits
