"""The hat: the replicated top of the distributed range tree (§4, Figure 3).

Cutting every segment tree of the d-dimensional range tree at level
``log2(n/p)`` yields the **hat** — the top ``log p`` levels of the primary
tree, of the descendant trees of its internal nodes, and so on
(Definition 3): ``O(p log^{d-1} p)`` nodes (Theorem 1), replicated on
every processor, whose leaves (the *hat leaves*) root the forest
elements.

The hat's topology — rows, links, labels, tilings, the owner of each hat
leaf's element — is arithmetic in ``(p, d)`` alone: one
:class:`HatShape` (:func:`hat_shape`) serves every tree and every part of
a pass.  The shape precedes Construct, which names
every group, element and segment tree by it, so a row is a node's one
name from Construct to Search.  A :class:`Hat` is that shape plus one
tree's segments, leaf counts and ``f(v)``, seated by :meth:`Hat.build`
from the ``dist.root`` batch Construct step 5 broadcasts
(:func:`forest_roots`), so every processor holds bit-identical rows with
no further communication.  Construct's hat holds no layer
(:data:`~repro.semigroup.NO_LAYERS`); a refit
(:meth:`Hat.refresh_aggregates`) rebinds the aggregate column alone,
folded up level by level under the annotation's kernel.

:func:`walk_hats` is step 1 of Algorithm Search: the four-case segment
tree walk (§4) for a host's query slices over every part of a pass as
one frontier expansion, emitting dimension-``d`` selections and subquery
continuations into the forest.  The same walk one query and one node at
a time, the reference the batched walk is pinned against, is
``tests.helpers.hat_walk``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from .._util import ilog2, require_power_of_two, slice_positions
from ..cgm.columns import RecordBatch
from ..errors import MachineError, ProtocolError
from ..semigroup import NO_LAYERS, Semigroup
from ..semigroup.kernels import KernelColumn
from .labeling import Path, make_path
from .records import KIND_EXPAND, KIND_SUBQUERY, flatten_path, unflatten_path

__all__ = ["Hat", "HatShape", "forest_roots", "hat_shape", "walk_hats"]


class HatShape:
    """The rows of every hat on ``p`` processors in ``d`` dimensions.

    One row per node, in the order the walk emits: ``order(v) = [v] +
    order(v's descendant tree) + order(left subtree) + order(right
    subtree)``, so one ``lexsort((node, query))`` orders a batch's output.
    Per row: ``dim``, the ``leaf``/``last_dim`` flags, the ``left``/
    ``right`` children and ``desc`` pointer of Definition 1 (−1 when
    absent), the Definition 2 label as a ``−1``-padded row of ``paths``
    (levels counted from the cut), the ``width`` in hat leaves of its own
    tree and the ``first``/``last`` of them.  A dimension-``d`` node's hat
    leaves, left to right, are ``tile_leaf_ids[tile_off : tile_off +
    tile_len]``.

    What Construct names by the shape: ``groups[j]`` lists phase ``j``'s
    hat leaves in label order, so group ``g`` of the phase (records ``g ·
    n/p`` onward of its sort) is the element below leaf ``groups[j][g]``.
    A segment tree's *key* is its rank among its phase's tree labels.  A
    hat leaf's ``location``/``tree`` (−1 elsewhere) are its element's
    owner and index in the owner's stack: phase ``j``'s groups are
    ``base_j + g`` overall, and group ``G`` goes to processor ``G mod p``
    as tree ``g // p``.  A phase-``j < d−1`` hat leaf's points also go to
    the descendant trees anchored at its proper ancestors, nearest first:
    their keys are ``fan_keys[fan_off : fan_off + fan_len]``.

    One object per ``(p, d)``; the arrays are read-only, and a shape
    pickles as its key, so a worker process re-attaches to its own memo.
    """

    def __init__(self, **columns: Any) -> None:
        self.__dict__.update(columns)
        self._tiles: Dict[int, HatShape] = {}
        for col in columns.values():
            for arr in col if isinstance(col, tuple) else (col,):
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False

    def __reduce__(self):
        return hat_shape, (self.p, self.d)

    @property
    def size(self) -> int:
        """Rows per hat, ``H(p, d)``."""
        return len(self.dim)

    def label(self, i: int) -> Path:
        """The Definition 2 label of row ``i``, levels counted from the cut."""
        return unflatten_path(self.paths[i, : 2 * (int(self.dim[i]) + 1)])

    def stack_rows(self, rank: int, j: int, trees: int) -> np.ndarray:
        """The hat leaves naming rank ``rank``'s ``trees`` phase-``j``
        elements, in stack order; a :class:`~repro.errors.ProtocolError`
        when the shape names another count."""
        rows = self.groups[j][self.location[self.groups[j]] == rank]
        if len(rows) != trees:
            raise ProtocolError(
                f"rank {rank} stacks {trees} phase-{j} trees, the hat shape names {len(rows)}"
            )
        return rows

    def tiled(self, parts: int) -> "HatShape":
        """The shape laid end to end ``parts`` times — part ``b``'s row
        ``i`` at row ``b·H + i``, links and tilings shifted along —
        memoized per ``parts``: a working view for :func:`walk_hats`."""
        if parts == 1:
            return self
        if parts not in self._tiles:
            H = self.size
            step = dict(left=H, right=H, desc=H, first=H, last=H, tile_leaf_ids=H,
                        tile_off=len(self.tile_leaf_ids), fan_off=len(self.fan_keys))
            laid = {
                name: np.concatenate(
                    [np.where(col >= 0, col + b * step[name], col) if name in step else col
                     for b in range(parts)]
                )
                for name, col in vars(self).items()
                if isinstance(col, np.ndarray)
            }
            self._tiles[parts] = HatShape(**{**vars(self), **laid})
        return self._tiles[parts]


@lru_cache(maxsize=None)
def hat_shape(p: int, d: int) -> HatShape:
    """The :class:`HatShape` of every hat on ``p`` processors in ``d``
    dimensions, from Definitions 2-3 alone."""
    require_power_of_two("processor count p", p)
    if d < 1:
        raise MachineError(f"dimension must be positive, got {d}")
    names = ("dim", "left", "right", "desc", "width", "first", "last", "tile_off", "tile_len")
    cols: Dict[str, List[int]] = {name: [] for name in names}
    dim, left, right, desc, width, first, last, tile_off, tile_len = cols.values()
    labels: List[Path] = []
    tile_leaf_ids: List[int] = []
    ups: Dict[int, Tuple[int, ...]] = {}  # a fanning hat leaf's proper ancestors

    def emit(idx: int, lvl: int, k: int, tree_id: Path, up: Tuple[int, ...] = ()) -> int:
        """Append node ``(idx, lvl)`` of tree ``tree_id`` — ``up`` its
        proper ancestors there, nearest first — and all below it."""
        i = len(labels)
        labels.append(make_path(idx, lvl, tree_id))
        for col in cols.values():
            col.append(-1)
        dim[i], width[i] = k, 1 << lvl
        tile_off[i] = len(tile_leaf_ids) if k == d - 1 else 0
        if lvl == 0:
            first[i] = last[i] = i
            if k == d - 1:
                tile_leaf_ids.append(i)
            else:
                ups[i] = up
        else:
            if k < d - 1:
                # a descendant root inherits its anchor's label (Definition 2(ii))
                desc[i] = emit(idx, lvl, k + 1, labels[i])
            left[i] = emit(2 * idx, lvl - 1, k, tree_id, (i, *up))
            right[i] = emit(2 * idx + 1, lvl - 1, k, tree_id, (i, *up))
            first[i], last[i] = first[left[i]], last[right[i]]
        tile_len[i] = len(tile_leaf_ids) - tile_off[i] if k == d - 1 else 0
        return i

    emit(1, ilog2(p), 0, ())
    arrays = {name: np.asarray(col, dtype=np.int64) for name, col in cols.items()}
    leaf = arrays["left"] < 0
    # Construct step 3: hat leaves in (phase, label) order are groups G =
    # 0, 1, ...; G goes to processor G mod p as tree g // p, g its place
    # in its phase
    location, tree = np.full((2, len(labels)), -1, dtype=np.int64)
    order = sorted(
        np.flatnonzero(leaf).tolist(), key=lambda i: (len(labels[i]), labels[i][1:], labels[i][0])
    )
    G, phase = np.arange(len(order)), arrays["dim"][order]
    location[order], tree[order] = G % p, (G - np.searchsorted(phase, phase)) // p
    # every segment tree holds a hat leaf, so the groups meet each phase's
    # trees in label order: a tree's key is its rank among them
    key_of: Dict[Path, int] = {}
    trees_in = [0] * d
    for i in order:
        if labels[i][1:] not in key_of:
            key_of[labels[i][1:]] = trees_in[len(labels[i]) - 1]
            trees_in[len(labels[i]) - 1] += 1
    fan_off, fan_len = np.zeros((2, len(labels)), dtype=np.int64)
    fan_keys: List[int] = []
    for i, up in ups.items():
        fan_off[i], fan_len[i] = len(fan_keys), len(up)
        fan_keys += [key_of[labels[a]] for a in up]  # the tree anchored at a
    paths = np.full((len(labels), 2 * d), -1, dtype=np.int64)
    for i, label in enumerate(labels):
        paths[i, : 2 * len(label)] = flatten_path(label)
    return HatShape(
        p=p, d=d, leaf=leaf, last_dim=arrays["dim"] == d - 1, paths=paths,
        tile_leaf_ids=np.asarray(tile_leaf_ids, dtype=np.int64), location=location, tree=tree,
        groups=tuple(np.asarray(order, dtype=np.int64)[phase == j] for j in range(d)),
        fan_off=fan_off, fan_len=fan_len, fan_keys=np.asarray(fan_keys, dtype=np.int64),
        **arrays,
    )


def forest_roots(row, lo, hi, agg: KernelColumn) -> RecordBatch:
    """What Construct step 5 and a refit broadcast, one ``dist.root`` row
    per forest element: its hat leaf's ``row``, the closed rank segment
    ``lo`` .. ``hi`` it covers, and its root aggregate ``agg``, encoded."""
    cols = {name: np.asarray(a, dtype=np.int64) for name, a in (("row", row), ("lo", lo), ("hi", hi))}
    return RecordBatch("dist.root", {**cols, "agg": agg}, len(agg))


def _seat(shape: HatShape, roots: RecordBatch, kernel) -> tuple:
    """Each root's segment and aggregate at its row, the other rows'
    aggregates the identity; a :class:`~repro.errors.ProtocolError` for
    the first row that is no hat leaf or seats a second root, and for a
    hat leaf no root names."""
    row = roots.col("row")
    known = (row >= 0) & (row < shape.size)
    known[known] = shape.leaf[row[known]]
    first = np.zeros(len(row), dtype=bool)
    first[np.unique(row, return_index=True)[1]] = True
    bad = np.flatnonzero(~(known & first))
    if len(bad):
        what = "duplicate" if known[bad[0]] else "unknown"
        raise ProtocolError(f"forest roots do not match the hat: {what} row {row[bad[0]]}")
    seated = np.zeros(shape.size, dtype=bool)
    seated[row] = True
    missing = np.flatnonzero(shape.leaf & ~seated)
    if len(missing):
        raise ProtocolError(f"forest roots incomplete: no root for hat leaf row {missing[0]}")
    seg = np.zeros((shape.size, 2), dtype=np.int64)
    seg[row, 0], seg[row, 1] = roots.col("lo"), roots.col("hi")
    aggs = kernel.identity_mat(shape.size)
    aggs[row] = roots.col("agg").data
    return seg, aggs


def _fold(kernel, aggs: np.ndarray, shape: HatShape) -> KernelColumn:
    """The aggregate column for leaf-seeded ``aggs``, under ``kernel``.

    A row's children are half its width, so the rows fold one width at a
    time, narrowest first: each level is one kernel fold over its rows'
    ``(left, right)`` child pairs — the pairs the per-node ``combine``
    would take.
    """
    width = 2
    while width <= shape.p:
        rows = np.flatnonzero(shape.width == width)
        pairs = np.stack([shape.left[rows], shape.right[rows]], axis=1).ravel()
        starts = np.arange(0, len(pairs), 2)
        aggs[rows] = kernel.fold(aggs[pairs], starts, starts + 2)
        width *= 2
    return KernelColumn(kernel, aggs)


class Hat:
    """One tree's hat (Definition 3, Figure 3): the shared ``shape`` plus
    this tree's own rows.

    ``n``, the cut ``leaf_level = log2(n/p)``, and per row the closed rank
    interval ``lo``/``hi`` covered in the row's dimension (the tightest
    cover of its points' ranks — exact for the four-case walk; an internal
    row's is its first and last hat leaves'), ``nleaves`` (``width ·
    n/p``) and ``f(v)``, held once in ``aggs``, a
    :class:`~repro.semigroup.kernels.KernelColumn` under the annotation's
    kernel — zero columns wide under :data:`~repro.semigroup.NO_LAYERS`,
    a count's annotation, whose ``f(v)`` is ``nleaves``.  A row number is the node's name in every Search stream,
    and a hat-leaf row names the forest element rooted there.  ``idle`` is
    the walk's output for an empty query slice, its ``agg`` column like
    any other.
    """

    def __init__(self, **columns: Any) -> None:
        self.__dict__.update(columns)

    @classmethod
    def build(cls, roots: RecordBatch, d: int, n: int, p: int) -> "Hat":
        """Deterministically emit the hat from the ``dist.root`` batch
        of the forest roots (:func:`forest_roots`), under
        :data:`~repro.semigroup.NO_LAYERS` as Construct's stacks are.

        Raises :class:`~repro.errors.ProtocolError` when the roots' rows
        do not seat every hat leaf of the ``(p, d)`` shape exactly once —
        a missing, duplicated or unknown row means the construction
        protocol was violated on some processor.
        """
        if not len(roots):
            raise MachineError("cannot build a hat from zero forest roots")
        require_power_of_two("point count n", n)
        if p > n:
            raise MachineError(f"p={p} exceeds the padded point count n={n}")
        shape = hat_shape(p, d)
        leaf_level = ilog2(n) - ilog2(p)
        seg, aggs = _seat(shape, roots, NO_LAYERS.kernel)
        hat = cls(
            shape=shape, n=n, leaf_level=leaf_level, semigroup=NO_LAYERS,
            lo=seg[shape.first, 0], hi=seg[shape.last, 1], nleaves=shape.width * (n // p),
            aggs=KernelColumn(NO_LAYERS.kernel, aggs),
        )
        # What a rank holding no queries returns: the walk's own zero-row
        # output, made once, so an idle rank does no numpy work per pass.
        none = np.zeros((0, d), dtype=np.int64)
        hat.idle = walk_hats([hat], 0, [(none, none)], np.zeros(0, dtype=bool))
        return hat

    def replica(self) -> "Hat":
        """Another rank's own replica of this hat: its own copies of the
        tree's arrays (``lo``, ``hi``, ``nleaves``, ``aggs``); the shape
        and the ``idle`` output, both read-only, stay shared."""
        copies = {name: getattr(self, name).copy() for name in ("lo", "hi", "nleaves", "aggs")}
        return Hat(**{**vars(self), **copies})

    def size_nodes(self) -> int:
        """Total node count ``|H|`` (Theorem 1: ``O(p log^{d-1} p)``)."""
        return self.shape.size

    def path(self, i: int) -> Path:
        """The Definition 2 name of node ``i`` in this tree."""
        return tuple((idx, lvl + self.leaf_level) for idx, lvl in self.shape.label(i))

    def agg(self, i: int) -> Any:
        """The annotation ``f(v)`` of node ``i`` as a semigroup value."""
        return self.aggs[i]

    def refresh_aggregates(self, roots: RecordBatch, semigroup: Semigroup) -> None:
        """Reseed hat-leaf aggregates from fresh forest roots and fold up.

        Local work only — the one communication round of re-annotation is
        the broadcast that delivered ``roots``.  The new column is folded
        aside and bound, with the ``idle`` output typed for it, in one
        assignment: a walk reads the old annotation or the new one.
        """
        _seg, aggs = _seat(self.shape, roots, semigroup.kernel)
        aggs = _fold(semigroup.kernel, aggs, self.shape)
        idle = (self.idle[0].with_col("agg", aggs[:0]), *self.idle[1:])
        self.semigroup, self.aggs, self.idle = semigroup, aggs, idle

    def copy_annotation(self, other: "Hat") -> None:
        """Bind a copy of replica ``other``'s annotation: what
        :meth:`refresh_aggregates` binds from the roots ``other`` was
        refreshed from, without folding them again."""
        self.semigroup, self.aggs, self.idle = other.semigroup, other.aggs.copy(), other.idle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Hat(n={self.n}, p={self.shape.p}, d={self.shape.d}, "
            f"nodes={self.size_nodes()}, leaf_level={self.leaf_level})"
        )


def walk_hats(
    hats: Sequence[Hat],
    qlo: int,
    bounds: Sequence[Tuple[np.ndarray, np.ndarray]],
    report,
    sizes: "Sequence[int] | None" = None,
) -> Tuple[RecordBatch, RecordBatch, RecordBatch, np.ndarray]:
    """Search step 1 for a whole query slice over every part at once.

    ``hats`` are the parts' hats (one shape, one annotation), ``bounds``
    the slice's int64 ``(nq, d)`` rank bounds in each part's rank space
    (queries ``qlo .. qlo + nq - 1``) and ``report`` its bool ``(nq,)``
    slice of the pass's mask.  The frontier runs over ``(part·nq + query,
    part·H + row)`` pairs on the parts' bounds and tree columns laid end
    to end and the shape tiled per part (one part reads its hat's own
    arrays); each iteration classifies every live pair into die/select/
    split/descend — row for row what a walk per query emits.

    ``sizes`` cuts the slice into consecutive rank slices (a host's
    block, laid end to end; default one slice): the output comes slice by
    slice, each slice's rows what a walk of that slice alone emits.

    Returns ``(selections, subqueries, expansions, visits)``: the
    ``dist.hat_selection`` batch (``agg`` under the hats' kernel), two
    ``dist.search.routing`` batches — the surviving subqueries, and one
    expansion request per forest element tiling a selection whose query
    ``report`` marks — and the visited-node counts per ``part·nq + query``
    (Theorem 3's charge; empty boxes visit nothing).  Rows come by slice,
    then part, then query, then row, and name nodes and elements
    ``part·H + row``.
    """
    hat, parts, nq = hats[0], len(hats), len(report)
    shape = hat.shape.tiled(parts)

    def laid(cols: list) -> Any:  # one part's own array (no copy), or all end to end
        return cols[0] if parts == 1 else np.concatenate(cols)

    los, his = map(laid, zip(*bounds))
    lo, hi, nleaves = (laid([getattr(h, c) for h in hats]) for c in ("lo", "hi", "nleaves"))
    aggs = hat.aggs if parts == 1 else KernelColumn.concat([h.aggs for h in hats])
    visits = np.zeros(parts * nq, dtype=np.int64)

    # frontier: parallel (part·nq + query, part·H + row) arrays, starting
    # at each part's root for every non-empty box
    fq = np.flatnonzero((los <= his).all(axis=1))
    fn = fq // nq * hat.shape.size
    sel_q: List[np.ndarray] = []
    sel_n: List[np.ndarray] = []
    sub_q: List[np.ndarray] = []
    sub_n: List[np.ndarray] = []
    while len(fq):
        visits += np.bincount(fq, minlength=len(visits))
        dims = shape.dim[fn]
        a = los[fq, dims]
        b = his[fq, dims]
        nlo = lo[fn]
        nhi = hi[fn]
        leaf = shape.leaf[fn]
        alive = ~((b < nlo) | (nhi < a))  # ~die
        selm = alive & (a <= nlo) & (nhi <= b)
        hit = selm & shape.last_dim[fn]  # dimension-d selection
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
            [shape.desc[fn[down]], shape.left[fn[split]], shape.right[fn[split]]]
        )

    # (slice,) part·nq + query, row: one lexsort per stream
    slot = None if sizes is None or len(sizes) < 2 else np.repeat(np.arange(len(sizes)), sizes)

    def ordered(qs: List[np.ndarray], ns: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
        q = np.concatenate(qs) if qs else np.empty(0, np.int64)
        n = np.concatenate(ns) if ns else np.empty(0, np.int64)
        order = np.lexsort((n, q) if slot is None else (n, q, slot[q % nq]))
        return q[order], n[order]

    sq, sn = ordered(sel_q, sel_n)
    uq, un = ordered(sub_q, sub_n)
    sel_qid = qlo + sq % nq

    # expansions: each reporting selection's slice of its tree block
    lens = np.where(report[sq % nq], shape.tile_len[sn], 0)
    elements = shape.tile_leaf_ids[slice_positions(shape.tile_off[sn], lens)]
    selections = RecordBatch(
        "dist.hat_selection",
        {
            "qid": sel_qid,
            "node": sn,
            "nleaves": nleaves[sn],
            "agg": aggs.take(sn),
        },
        len(sq),
    )
    subqueries = _routing(shape, KIND_SUBQUERY, qlo + uq % nq, los[uq], his[uq], un)
    none = np.zeros((len(elements), shape.d), dtype=np.int64)
    expansions = _routing(shape, KIND_EXPAND, np.repeat(sel_qid, lens), none, none, elements)
    return selections, subqueries, expansions, visits


def _routing(shape: HatShape, kind: int, qid, los, his, element) -> RecordBatch:
    """A ``dist.search.routing`` batch aimed at ``element``'s owners."""
    return RecordBatch(
        "dist.search.routing",
        {
            "kind": np.full(len(qid), kind, dtype=np.int64),
            "qid": qid,
            "los": los,
            "his": his,
            "element": element,
            "location": shape.location[element],
        },
        len(qid),
    )
