"""The range tree as sorted arrays: direct build + arithmetic walks.

The canonical walk of the object range tree (``tests.helpers.RangeTree``)
chases Python objects one query at a time; it is the tests' reference.
A range tree's topology is *fixed* after construction (refits replace
aggregates, never structure): every segment tree in it is perfect, every
label Definition 2 arithmetic.  So the structure held here is, per
divided dimension, one **key block** — every segment tree of that
dimension as its rows' ranks in sorted order, trees laid end to end —
plus ``row_block`` (the row behind each slot of the last block: the
``s = n log^{d−1} n`` of the paper, stored once) and one aggregate per
node.  No node carries bounds or links: a batch of boxes (every query of
:class:`~repro.seq.range_tree.SequentialRangeTree`, one box or many, and
Search step 5 alike) finds its canonical nodes with one ``searchsorted``
pair and a closed-form cover per dimension.  This is the only form a
range tree is held in outside the reference.

Trees of one width can be **stacked**: tree ``t`` of a stack holds rows
``t·w .. (t+1)·w − 1`` and starts, in every key block, where tree
``t − 1`` ends.  One walk serves stacks of any widths that divide the
same dimensions: each box names its stack and tree, whose offsets are
its walk's starting point.  So :mod:`repro.dist` holds a processor's
forest group as one stack per dimension and walks a dimension's stacks,
its own and its copies, in one call.

Four invariants make the arithmetic exact:

* **Emission order.**  Every key block lays its segment trees out in the
  object walk's own DFS emission order — ``order(v) = [v] +
  order(descendant tree of v) + order(left subtree) + order(right
  subtree)``.  With ``R(w, r)`` ``row_block`` rows in an
  ``r``-dimensional tree on ``w`` leaves, ``R(w, 1) = w`` and, for
  ``r > 1``, ``R(w, r) = R(w, r−1) + 2·R(w/2, r)`` (the halves vanish at
  ``w = 1``).  The descendant tree of a node covering ``[s, s + 2^t)``
  of a width-``2^e`` tree therefore starts, past the tree's own start,
  after the descendant trees of its ``e − t`` proper ancestors plus one
  half-width subtree per set bit of ``s`` (:func:`_path_sums`).
  Canonical nodes of one query are disjoint, so left to right *is* the
  object walk's per-query order: the walk emits selections already in
  it, no sort.
* **Alignment.**  Every last-dimension tree of width ``w`` starts in
  ``row_block`` at a multiple of ``w``, and those trees tile
  ``row_block`` exactly (``R(w, r)`` is a multiple of ``w``, and a
  tree's descendant tree and halves follow one another from its
  start).  So each one is a subtree of the heap over its aligned
  width-``m`` block, ``m`` the stack's width, and ``aggs`` opens with
  one such heap of ``m`` rows per block, its leaf level left out: the
  node covering ``[off, off + 2^t)``, ``t ≥ 1``, sits at row
  ``m·(off // m) + ((m + off % m) >> t)``.  Row 0 of a heap is the
  identity; a row whose span crosses two narrower trees is folded and
  never read.  A leaf is its row's own value, held once: after the
  ``R = len(row_block)`` heap rows come ``trees·m`` rows, row ``R + i``
  the value of stack row ``i`` (``pids`` order), so the leaf at ``off``
  sits at row ``R + row_block[off]``.  A width-1 tree's root is a
  leaf.
* **Closed-form cover.**  A closed rank interval ``[a, b]`` is the
  position interval ``[i, j)`` of a tree's sorted keys.  With
  ``z = bit_length(i ^ j) − 1`` the split level and
  ``c = (j >> z) << z`` the split point, its canonical cover is one
  width-``2^t`` block per set bit ``t`` of ``c − i``, ascending, then
  one per set bit of ``j − c``, descending — left to right they tile
  ``[i, j)``, each starting where the one before ended.
* **Visit accounting.**
  :meth:`~repro.seq.segment_tree.SegTree.decompose_counted` visits the
  canonical nodes and every node straddling an end of ``[i, j)``:
  ``popcount(c − i) + popcount(j − c) + (e − z) + (z − tz(c − i)) +
  (z − tz(j − c))`` for a non-empty interval (``tz`` the trailing
  zeros; the last term is 0 when ``j = c``); an empty one visits the
  ``e − tz(i)`` nodes straddling ``i``, or just the dying root at
  ``i ∈ {0, w}``.

``tests/test_compiled_forest.py`` pins the arrays against the object
tree: same selections, same order, same visit counts, same aggregates.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

from .._util import ilog2, require_power_of_two, slice_positions
from ..errors import GeometryError
from ..semigroup import NO_LAYERS, Semigroup
from ..semigroup.kernels import KernelColumn, batched_heap_fold

__all__ = ["CompiledForest", "Selections"]

_I64 = np.int64
#: the walk clips each (lo, hi) to [(0, −1), span − (1, 2)], then adds (0, 1)
_CLIP_LO, _CLIP_HI, _CLIP_UP = np.array([0, -1]), np.array([1, 2]), np.array([0, 1])


def _bit_length(x: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of each non-negative entry (exact below 2^53)."""
    return np.frexp(x)[1]


def _trailing_zeros(x: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each positive entry."""
    return _bit_length(x & -x) - 1


@lru_cache(maxsize=None)
def _sizes(w: int, r: int) -> Tuple[int, int, int]:
    """``(T, R, S)``: nodes, ``row_block`` rows and leaf records (leaves
    of all segment trees, primary ones included) of an ``r``-dimensional
    range tree on ``w`` leaves (Definition 2 arithmetic).

    ``T(w, 1) = 2w − 1`` and ``R(w, 1) = S(w, 1) = w``; for ``r > 1`` a
    tree is its primary root, the root's ``(r − 1)``-dimensional
    descendant tree and the two half-width subtrees:
    ``T(w, r) = 1 + T(w, r−1) + 2·T(w/2, r)`` (``R`` and ``S`` likewise,
    without the ``1``); at ``w = 1`` the halves vanish and the root is
    itself a leaf record.  A 0-dimensional tree is nothing.
    """
    if r <= 1:
        return (2 * w - 1, w, w) if r else (0, 0, 0)
    t1, r1, s1 = _sizes(w, r - 1)
    if w == 1:
        return 1 + t1, r1, 1 + s1
    th, rh, sh = _sizes(w >> 1, r)
    return 1 + t1 + 2 * th, r1 + 2 * rh, s1 + 2 * sh


def _frozen(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``arrays``, read-only: a memoized result is shared by every stack
    and walk of its shape, so a stray in-place write must raise, not
    corrupt every later build."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _path_sums(e: int, q: int) -> Tuple[np.ndarray, np.ndarray]:
    """Where the node covering ``[s, s + 2^t)`` of a width-``2^e'`` tree
    (``e' ≤ e``) dividing ``q`` dimensions sits, as sums along its root
    path: ``before[e'] − before[t] + sibs[s]`` past the tree's own start
    — ``before`` sums what each proper ancestor (widths ``2^(t+1) ..
    2^e'``) lays out ahead of its subtrees, ``sibs[s]`` one left sibling
    subtree per set bit of ``s``.

    One column per key block the tree occupies, ``b = 0 .. q−1`` the
    block ``b`` dimensions down — an ancestor's descendant tree holds
    ``R(·, b)`` rows there, a sibling subtree ``R(·, b + 1)`` — so
    column 0 is just ``s`` (the node's own key slice) and the others are
    where its descendant tree starts.
    """
    ahead = [[_sizes(1 << u, b)[1] for b in range(q)] for u in range(e + 1)]
    before = np.cumsum(ahead, axis=0, dtype=_I64)
    sibs = np.zeros((1, q), dtype=_I64)
    for u in range(e):
        sibs = np.concatenate([sibs, sibs + [_sizes(1 << u, b + 1)[1] for b in range(q)]])
    return _frozen(before, sibs)


def _index_type(bound: int) -> np.dtype:
    """A stack's index type: every key, row and walk probe of a stack
    lies below ``bound`` = ``R(m, r) · trees · span``, so int32 when it
    holds ``bound``, int64 otherwise — the type
    :meth:`CompiledForest.from_ranks` stores ``keys`` and ``row_block``
    in."""
    return np.dtype(np.int32 if bound <= np.iinfo(np.int32).max else _I64)


@lru_cache(maxsize=None)
def _cover_bits(nbits: int) -> Tuple[np.ndarray, np.ndarray]:
    """The candidate blocks of a cover whose two sides fit ``nbits``
    bits, left to right: ``level`` (log2 width per column — the bits of
    ``c − i`` ascending, then the bits of ``j − c`` descending) and the
    matching ``(2, nbits)`` bit masks, in the narrowest unsigned type
    that holds ``2^(nbits − 1)`` (the walk casts the sides to it, so the
    ``(pairs, 2, nbits)`` cover mask moves no more bytes than it needs)."""
    level = np.arange(nbits, dtype=_I64)
    level = np.concatenate([level, level[::-1]])
    bits = next(b for b in (8, 16, 32, 64) if nbits <= b)
    return _frozen(level, (1 << level).reshape(2, nbits).astype(f"uint{bits}"))


@lru_cache(maxsize=None)
def _tree_step(m: int, r: int) -> np.ndarray:
    """How far tree ``t + 1`` of a stack of ``r``-dimensional trees on
    ``m`` leaves starts past tree ``t``: ``R(m, b + 1)`` slots in each
    key block ``b`` — the columns of :func:`_path_sums`."""
    (step,) = _frozen(np.array([_sizes(m, b + 1)[1] for b in range(r)], dtype=_I64))
    return step


@lru_cache(maxsize=32)
def _layout(m: int, r: int, count: int) -> Tuple[Mapping[int, Tuple[np.ndarray, np.ndarray]], ...]:
    """Every segment tree of a stack of ``count`` ``r``-dimensional range
    trees on ``m`` leaves, by arithmetic: per divided dimension ``k``,
    per tree width ``w``, the trees' ``(starts, parent)`` — ``starts``
    one row per tree, columns as in :func:`_path_sums` (its start in
    each key block ``k .. r−1``); ``parent`` the block-``k−1`` position
    of the parent node's key slice, whose rows are the tree's (for a
    primary tree, its first row).

    The one enumeration behind the build and the validator; read-only.
    """
    t = np.arange(count, dtype=_I64)
    levels = [{m: (t[:, None] * _tree_step(m, r), t * m)}]
    for k in range(r - 1):
        kids: Dict[int, List[np.ndarray]] = {}
        before, sibs = _path_sums(ilog2(m), r - k)
        for w, (starts, _parent) in levels[-1].items():
            e = ilog2(w)
            for t in range(e + 1):
                off = before[e] - before[t] + sibs[: w : 1 << t]
                kids.setdefault(1 << t, []).append((starts[:, None, :] + off).reshape(-1, r - k))
        level = {}
        for w, parts in kids.items():
            at = np.concatenate(parts)
            level[w] = (at[:, 1:], at[:, 0])
        levels.append(level)
    for level in levels:
        for w, pair in level.items():
            level[w] = _frozen(*pair)
    return tuple(MappingProxyType(level) for level in levels)


class Selections(NamedTuple):
    """What :meth:`CompiledForest.walk` returns: one entry per selected
    last-dimension node, in the object walk's exact emission order, plus
    the per-box visit counts."""

    q: np.ndarray  #: index of the box that selected the node
    node: np.ndarray  #: its row in the aggregates: a block-heap row, a leaf's tail row
    off: np.ndarray  #: its leaf rows start here in ``row_block`` …
    length: np.ndarray  #: … and are this many (the node's width)
    visits: np.ndarray  #: per *box*: nodes visited, ``decompose_counted``'s count


class CompiledForest:
    """A stack of range trees as sorted arrays, walked for many boxes at once.

    ``keys[k]`` is the key block of divided dimension ``k`` (the last
    ``len(keys)`` dimensions are the divided ones): one integer per stored
    row, ``tree_start · span + rank`` with the segment trees in emission
    order, the stack's range trees one after another, and each segment
    tree's ranks ascending — so the whole block ascends and one
    ``searchsorted`` locates a bound inside any tree.  ``span`` exceeds
    every rank by two, leaving room to clip a bound to "before all" /
    "after all" without leaving the tree's key range.  ``row_block``
    aligns with the last block: the row whose last-dimension rank each
    slot holds, so a last-dimension node's leaf rows are a contiguous
    ``(offset, width)`` slice.  Both are held in the stack's index type
    (:func:`_index_type`): 4 bytes a slot when ``R(m, r) · trees · span``
    fits int32, which bounds every key, row and walk probe, else 8.
    Node aggregates live in one
    :class:`~repro.semigroup.kernels.KernelColumn`, ``aggs``, one heap of
    ``width`` internal-node rows per width-``width`` block of
    ``row_block``, then each row's own value (see *Alignment* above),
    held under the annotation's kernel (a product of layers).  Every
    range tree of the stack has ``width`` leaves.  ``pids`` is the point
    id of each row when the holder files them (:mod:`repro.dist` does;
    the sequential tree maps rows to ids itself).
    """

    __slots__ = ("span", "width", "keys", "row_block", "pids", "aggs")

    def __init__(self, **arrays: Any) -> None:
        for name in self.__slots__:
            setattr(self, name, arrays.get(name))

    @property
    def shape(self) -> Tuple[int, int, int]:
        """``(trees, leaves per tree, divided dimensions)`` — all the
        topology there is."""
        return len(self.keys[0]) // self.width, self.width, len(self.keys)

    def layout(self) -> Tuple[Mapping[int, Tuple[np.ndarray, np.ndarray]], ...]:
        """Every segment tree by arithmetic — see :func:`_layout`."""
        count, m, r = self.shape
        return _layout(m, r, count)

    @property
    def size_nodes(self) -> int:
        """Nodes across all segment trees (a topology count: ``aggs``
        holds ``R(m, r) + m`` rows a tree, not one per node)."""
        count, m, r = self.shape
        return count * _sizes(m, r)[0]

    @property
    def size_records(self) -> int:
        """Leaf records across all segment trees, primary ones included."""
        count, m, r = self.shape
        return count * _sizes(m, r)[2]

    @property
    def nbytes(self) -> int:
        """Bytes of the held arrays (what a pickle of the stack ships)."""
        held = (*self.keys, self.row_block, self.aggs.data, self.pids)
        return sum(a.nbytes for a in held if a is not None)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_ranks(cls, ranks: np.ndarray, start_dim: int = 0) -> "CompiledForest":
        """The range trees over ``ranks`` (non-negative, distinct per
        dimension within a tree), dividing dimensions ``start_dim .. d−1``,
        emitted directly as arrays: one tree for a ``(w, d)`` matrix, a
        stack of ``trees`` for a ``(trees, w, d)`` array.  Topology only:
        the stack is born under :data:`~repro.semigroup.NO_LAYERS` and
        :meth:`annotate` adds its values.  A rank that repeats in a
        divided dimension of one tree raises :class:`GeometryError`.

        One pass per dimension: every segment tree takes its rows from
        its parent's sorted key slice (one gather for the whole block),
        keyed ``tree_start · span + rank``.  Those keys are distinct and
        ascend across the block in block order, so one ``argsort`` of
        them lays out the block and the sorted keys *are* it.  Keys,
        sort and row gathers run in the stack's :func:`_index_type`.
        """
        ranks = np.asarray(ranks, dtype=_I64)
        count, m, d = ranks.reshape(-1, *ranks.shape[-2:]).shape
        ranks = ranks.reshape(count * m, d)
        require_power_of_two("range tree point count", m)
        span = int(ranks.max()) + 2
        index = _index_type(_sizes(m, d - start_dim)[1] * count * span)
        ranks = ranks[:, start_dim:].astype(index)
        keys: List[np.ndarray] = []
        rows_above = np.arange(count * m, dtype=index)
        for k, classes in enumerate(_layout(m, d - start_dim, count)):
            # every segment tree of the block: its start, where its
            # parent's key slice starts one block up, its width
            starts = np.concatenate([s[:, 0] for s, _parent in classes.values()]).astype(index)
            parents = np.concatenate([parent for _s, parent in classes.values()])
            widths = np.repeat(list(classes), [len(parent) for _s, parent in classes.values()])
            rows = rows_above[slice_positions(parents, widths)]
            tree_keys = np.repeat(starts, widths) * span + ranks[rows, k]
            order = np.argsort(tree_keys)
            block = tree_keys[order]
            if (block[1:] <= block[:-1]).any():
                raise GeometryError(
                    f"a rank repeats within one tree in dimension {start_dim + k}"
                )
            keys.append(block)
            rows_above = rows[order]
        forest = cls(span=span, width=m, keys=tuple(keys), row_block=rows_above)
        forest.annotate((), NO_LAYERS)
        return forest

    def row_ranks(self) -> np.ndarray:
        """Each input row's rank in the first divided dimension, in
        input-row order: the index a rank-ordered value column is read
        at to give the values :meth:`annotate` aligns with the rows.

        Exact when every tree's rows were given ascending in that
        dimension, as :func:`repro.dist.forest.build_stack` requires:
        the first block's argsort is then the identity, so its sorted
        keys ``tree_start · span + rank`` run in input-row order.  A
        stack built from rows in any other order (the sequential tree's)
        has no such reading.
        """
        return self.keys[0] % self.span

    def annotate(self, values: Sequence[Any], semigroup: Semigroup) -> None:
        """(Re)compute every last-dimension node's aggregate ``f(v)`` over
        the held topology and rebind the aggregate column.

        Step 1 of Algorithm AssociativeFunction: O(s) work, no topology
        touched.  ``semigroup`` is an annotation
        (:func:`~repro.semigroup.annotation_of`), a
        :class:`~repro.semigroup.ProductSemigroup` with one layer per
        component; :data:`~repro.semigroup.NO_LAYERS`, what a count
        annotates with, has none, and its column is ``R(m, r) + m`` rows
        a tree of zero width.  ``values`` align with the rows, tree
        after tree.  A layer the held column already has —
        known by its kernel's name, read off ``aggs`` itself — is taken
        from it; only the others are folded (:meth:`_fold`), each under
        its own kernel from its slot of ``values``, so a refit that adds
        one layer folds one.  ``values`` is a column or a plain sequence
        (encoded here); a held layer is trusted to be their fold (a
        stack's rows never change).  The new column is bound only once
        every layer is in hand: a fold that raises leaves ``aggs`` as it
        was.
        """
        values = KernelColumn.from_values(semigroup.kernel, values)
        held = [] if self.aggs is None else [layer.name for layer in self.aggs.kernel.layers]
        layers = [
            self.aggs.layer(held.index(layer.name))
            if layer.name in held
            else self._fold(values.layer(slot))
            for slot, layer in enumerate(values.kernel.layers)
        ]
        rows = len(self.row_block) + len(self.keys[0])
        self.aggs = KernelColumn.from_layers(values.kernel, layers, rows)

    def _fold(self, leaves: KernelColumn) -> KernelColumn:
        """One layer's aggregate column from its leaf values, under their
        kernel: one heap fold over the width-``m`` blocks of
        ``row_block`` (*Alignment*), written into the head of the
        ``R + trees·m``-row column whose tail is ``leaves`` as given.

        Every last-dimension tree is a subtree of its block's heap, so
        its nodes combine the same child pairs as a per-node bottom-up
        ``combine`` loop, hence bit-identical values.
        """
        kernel = leaves.kernel
        heads = len(self.row_block)
        out = np.empty((heads + len(leaves), kernel.width), dtype=kernel.dtype)
        out[heads:] = leaves.data
        blocks = (-1, self.width, kernel.width)
        gathered = leaves.data[self.row_block].reshape(blocks)
        batched_heap_fold(kernel, gathered, out[:heads].reshape(blocks))
        return KernelColumn(kernel, out)

    # ------------------------------------------------------------------
    # the batched walk
    # ------------------------------------------------------------------
    @staticmethod
    def walk(
        stacks: Sequence["CompiledForest"],
        los: np.ndarray,
        his: np.ndarray,
        trees: "np.ndarray | None" = None,
        which: "np.ndarray | None" = None,
    ) -> Selections:
        """Canonical selections for a whole batch of rank boxes at once,
        over stacks dividing the same dimensions.

        ``los``/``his`` are ``(nq, d)`` int64 closed bounds, ``which``
        the index into ``stacks`` of each box's stack (ascending: boxes
        come grouped by stack) and ``trees`` its tree there (both 0 when
        omitted); a selection's ``node`` and ``off`` are its stack's.
        Visit counts follow
        :meth:`~repro.seq.segment_tree.SegTree.decompose_counted` (only
        per-tree roots can die; empty boxes visit nothing).

        One step per divided dimension over the live ``(box, tree)``
        pairs, grouped by stack: a ``searchsorted`` pair per stack over
        its slice, then, over all pairs, the closed-form cover and each
        cover node's descendant tree as the next step's pair.  A pair
        starts at its range tree's offsets and carries its stack's span
        and width; the rest is the same arithmetic for every tree
        (:func:`_path_sums` at the widest: a narrower tree's is a prefix).
        """
        nq = len(los)
        r = len(stacks[0].keys)
        visits = np.zeros(nq, dtype=_I64)
        pq = np.flatnonzero((los <= his).all(axis=1))
        if not len(pq):
            return Selections(pq, pq, pq, pq, visits)
        which = np.zeros(nq, dtype=_I64) if which is None else which
        span = np.array([st.span for st in stacks], dtype=_I64)
        top = np.array([ilog2(st.width) for st in stacks], dtype=_I64)
        widest = int(top.max())
        # (lo, hi) per divided dimension, clipped once to "before all" ..
        # "after all" of any tree's key range; hi + 1 makes both left searches
        bounds = np.array((los.T[-r:], his.T[-r:])).transpose(1, 2, 0)
        bounds = np.minimum(np.maximum(bounds, _CLIP_LO), span[which, None] - _CLIP_HI) + _CLIP_UP
        on = which[pq]  # each pair's stack
        e = top[on]  # log2 width of each pair's tree
        # each pair's starts, columns as in _path_sums
        step = np.array([_tree_step(st.width, r) for st in stacks])
        starts = step[on] * (0 if trees is None else trees[pq, None])
        for k in range(r):
            start = starts[:, :1]
            probe = start * span[on, None] + bounds[k].take(pq, axis=0)
            cut = np.bincount(on, minlength=len(stacks)).cumsum().tolist()
            # a stack's probes lie below its _index_type bound: searched
            # at its keys' width, its block is not upcast and copied
            ends = np.concatenate(
                [
                    np.searchsorted(st.keys[k], probe[a:b].astype(st.keys[k].dtype, copy=False))
                    for st, a, b in zip(stacks, [0] + cut, cut)
                ]
            ) - start
            # each temporary goes as soon as it is used: the last level's
            # pairs are the walk's peak
            del probe
            i, j = ends[:, 0], ends[:, 1]
            z = np.maximum(_bit_length(i ^ j) - 1, 0)
            sides = np.abs(ends - ((j >> z) << z)[:, None])  # c − i, j − c
            level, masks = _cover_bits(int(z.max(initial=0)) + 1)
            hits = np.flatnonzero((sides.astype(masks.dtype)[:, :, None] & masks) != 0)
            pair = hits // len(level)
            t = level[hits - pair * len(level)]
            del hits
            width = 1 << t
            # a pair's blocks tile [i, j) left to right
            length = j - i
            s = np.cumsum(width) - width + (i - (np.cumsum(length) - length))[pair]
            del width

            low = [_trailing_zeros(x) for x in (sides[:, 0], sides[:, 1] | (1 << z), i | (1 << e))]
            del ends, i, j, sides
            seen = np.where(
                length > 0,
                np.bincount(pair, minlength=len(pq)) + e + z - low[0] - low[1],
                np.maximum(e - low[2], 1),
            )
            del low, z, length
            visits += np.bincount(pq, weights=seen, minlength=nq).astype(_I64)
            del seen

            before, sibs = _path_sums(widest, r - k)
            at = (
                starts.take(pair, axis=0)
                + before.take(e[pair], axis=0)
                - before.take(t, axis=0)
                + sibs.take(s, axis=0)
            )
            del start, starts, s
            # the next dimension's pairs: each cover node's descendant tree
            pq, on, e, starts = pq[pair], on[pair], t, at[:, 1:]
            del pair
        # each last-dimension node's aggs row (*Alignment*): a block-heap
        # row, or for a leaf its row's tail row, read in its own stack's
        # row_block (selections come grouped by stack)
        off, width = at[:, 0], 1 << t
        m = 1 << top[on]
        pos = off & (m - 1)
        cut = np.bincount(on, minlength=len(stacks)).cumsum().tolist()
        tail = np.concatenate(
            [len(st.row_block) + st.row_block[off[a:b]] for st, a, b in zip(stacks, [0] + cut, cut)]
        )
        node = np.where(t > 0, off - pos + ((m + pos) >> t), tail)
        return Selections(pq, node, off, width, visits)

    def rows_flat(
        self, sel_off: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Leaf rows under each selected node, concatenated.

        ``sel_off`` is each selection's ``row_block`` offset and
        ``lengths`` the row count to take from it (the node's width, or 0
        to skip a selection) — one fancy gather, no traversal.
        """
        if not lengths.any():
            return self.row_block[:0]
        return self.row_block[slice_positions(sel_off, lengths)]

    def root_aggs(self) -> KernelColumn:
        """Each tree's aggregate over all its points, tree by tree, still
        encoded: the root of the last-dimension tree reached through the
        root's descendant trees — the first of the tree's ``row_block``
        slice, so row 1 of its first block's heap, or the tail row of
        that slot's row when the tree is one leaf wide."""
        count, m, r = self.shape
        off = np.arange(count, dtype=_I64) * _sizes(m, r)[1]
        return self.aggs.take(off + 1 if m > 1 else len(self.row_block) + self.row_block[off])
