"""The paper's segment tree (Section 2.1).

A ``[0..m)`` segment tree is a *complete* rooted binary tree with ``m``
leaves (``m`` a power of two).  Leaf ``k`` is associated with the k-th
smallest rank of the underlying point sequence; an internal node covers the
union of its children's ranks.  We store the tree implicitly in heap order
(root = 1, children of ``i`` are ``2i`` and ``2i+1``), which makes node
arithmetic O(1) and keeps memory to the sorted rank array itself.

Segments are *closed rank intervals* ``[lo, hi]``: the node covering array
slice ``[s, e)`` has ``lo = ranks[s]`` and ``hi = ranks[e-1]``.  When the
rank sequence is contiguous this coincides with the paper's dyadic segments
(Figure 1); for non-contiguous sequences (descendant trees of a range tree,
whose points carry *global* ranks) the interval is the tightest cover and
the canonical decomposition below remains correct because slices at one
level cover disjoint, ordered rank sets.

The one walk, :meth:`SegTree.decompose_counted`, compares the query with
each node by the paper's four cases (Section 4): contained -> select,
overlap -> split to the overlapping children, disjoint -> die.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import ilog2
from ..errors import GeometryError

__all__ = ["SegTree", "WalkStats"]


class SegTree:
    """Implicit complete binary segment tree over a sorted rank array.

    Parameters
    ----------
    sorted_ranks:
        1-d integer array of ranks in strictly increasing order whose length
        is a power of two.  The tree does not copy it.

    Notes
    -----
    *Heap ids*: nodes are addressed by heap index ``1 .. 2m-1``; leaves are
    ``m .. 2m-1`` left to right.  ``level(v)`` is the paper's Definition 2(i)
    (distance to a leaf), so leaves have level 0 and the root ``log2 m``.
    """

    __slots__ = ("ranks", "m", "height", "_rank_list")

    def __init__(self, sorted_ranks: np.ndarray) -> None:
        ranks = np.asarray(sorted_ranks, dtype=np.int64)
        if ranks.ndim != 1:
            raise GeometryError("SegTree needs a 1-d rank array")
        m = int(ranks.shape[0])
        self.height = ilog2(m)  # validates power of two
        if m > 1 and not bool(np.all(ranks[1:] > ranks[:-1])):
            raise GeometryError("SegTree ranks must be strictly increasing")
        self.ranks = ranks
        self.m = m
        # Python-int view of the ranks, built on first walk: the 4-case
        # walk is comparison-bound and plain ints compare ~4x faster than
        # numpy scalars.  (The array stays the storage of record.)
        self._rank_list: "list[int] | None" = None

    # ------------------------------------------------------------------
    # node arithmetic
    # ------------------------------------------------------------------
    @property
    def root(self) -> int:
        return 1

    def depth(self, node: int) -> int:
        """Distance from the root (root = 0)."""
        return node.bit_length() - 1

    def level(self, node: int) -> int:
        """Paper Definition 2(i): distance to a leaf (leaf = 0)."""
        return self.height - self.depth(node)

    def slice_of(self, node: int) -> tuple[int, int]:
        """Half-open array slice ``[s, e)`` of leaves under ``node``."""
        depth = self.depth(node)
        width = self.m >> depth
        offset = node - (1 << depth)
        s = offset * width
        return s, s + width

    def seg(self, node: int) -> tuple[int, int]:
        """Closed rank interval ``[lo, hi]`` covered by ``node``."""
        s, e = self.slice_of(node)
        return int(self.ranks[s]), int(self.ranks[e - 1])

    def nodes_at_level(self, level: int) -> range:
        """All heap ids with the given level, left to right."""
        if not 0 <= level <= self.height:
            raise GeometryError(f"level {level} out of range 0..{self.height}")
        depth = self.height - level
        return range(1 << depth, 1 << (depth + 1))

    # ------------------------------------------------------------------
    # the 4-case walk (Section 4): the canonical decomposition
    # ------------------------------------------------------------------
    def decompose(self, a: int, b: int) -> list[int]:
        """Canonical decomposition of ``[a, b]``: maximal covered nodes.

        Returns the heap ids of the ``O(log m)`` maximal nodes whose
        segments are contained in ``[a, b]``, in left-to-right order.
        """
        return self.decompose_counted(a, b)[0]

    def decompose_counted(self, a: int, b: int) -> tuple[list[int], int]:
        """:meth:`decompose` plus the number of nodes visited — the
        quantity the paper's complexity analysis counts.

        A node whose segment lies inside ``[a, b]`` is selected, one
        disjoint from it dies, and one that overlaps it pushes only its
        overlapping children.  The walk is comparison-bound, so it reads
        a cached Python rank list and each child's segment in place.
        """
        if a > b:
            return [], 0
        ranks = self._rank_list
        if ranks is None:
            ranks = self._rank_list = self.ranks.tolist()
        m = self.m
        out: list[int] = []
        stack = [1]
        visited = 0
        while stack:
            node = stack.pop()
            visited += 1
            depth = node.bit_length() - 1
            width = m >> depth
            s = (node - (1 << depth)) * width
            lo = ranks[s]
            hi = ranks[s + width - 1]
            if b < lo or hi < a:
                continue
            if a <= lo and hi <= b:
                out.append(node)
                continue
            # split: push each child iff its segment overlaps [a, b]
            # (right first so the output stays left-to-right)
            half = width >> 1
            left_hi = ranks[s + half - 1]
            right_lo = ranks[s + half]
            if not (b < right_lo or hi < a):
                stack.append(2 * node + 1)
            if not (b < lo or left_hi < a):
                stack.append(2 * node)
        return out, visited

    # ------------------------------------------------------------------
    # rendering (used by the Figure 1 reproduction)
    # ------------------------------------------------------------------
    def render(self) -> str:
        """ASCII rendering of the tree's segments, one level per line,
        labelled one-based.

        With contiguous ranks ``0..m-1`` this reproduces the labels of the
        paper's Figure 1: leaves ``[1,2) [2,3) ... [m,m]`` and dyadic
        internal segments.
        """
        last = int(self.ranks[-1])
        lines = []
        for level in range(self.height, -1, -1):
            cells = []
            for node in self.nodes_at_level(level):
                lo, hi = self.seg(node)
                if hi == last:
                    # segments touching the right end are closed: [7,8], [5,8], [1,8]
                    cells.append(f"[{lo + 1},{hi + 1}]")
                else:
                    cells.append(f"[{lo + 1},{hi + 2})")
            lines.append(" ".join(cells))
        return "\n".join(lines)


@dataclass
class WalkStats:
    """Mutable visit counters shared by the sequential structures."""

    nodes_visited: int = 0
    nodes_selected: int = 0
    points_reported: int = 0
    extra: dict = field(default_factory=dict)
