"""Processor-independent labeling of the distributed range tree (§3, Definition 2).

The paper names every node of the d-dimensional range tree *without any
global table*: a node of a segment tree is the pair ``(index, level)``
where ``index`` is the classical heap index inside its segment tree
(Figure 2: the children of index ``x`` are ``2x`` and ``2x + 1``) and
``level`` is the distance to the leaves of that tree (Definition 2(i)).
Because a descendant tree's root *inherits* the index of the node it
hangs from (Definition 2(ii), Figure 2), a node is globally identified by
its **path**: its own ``(index, level)`` pair followed by the pairs of
the ancestor nodes whose descendant trees it lives in, innermost first.
Lemma 1 states that these paths are unique; :func:`is_valid_path`
verifies the arithmetic a legal path must satisfy.

The *tree id* of a node is its path with the leading pair removed — the
path of the node its segment tree hangs from — so the primary tree ``T1``
has tree id ``()`` and a phase-``j`` tree has a tree id of length ``j``.

Everything in this module is pure integer arithmetic.  The hat's labels
are a function of ``(p, d)`` alone, so :func:`repro.dist.hat.hat_shape`
evaluates them once, before Construct runs, and numbers the nodes by
row: Construct routes records and Search addresses forest elements by
that row, and a label is read back from it (``HatShape.label``) only to
check or to show it.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "left_child_index",
    "right_child_index",
    "ancestor_index",
    "make_path",
    "is_valid_path",
]

#: A node's name inside one segment tree: ``(heap index, level)``.
IndexLevel = Tuple[int, int]
#: A global node name: its own pair followed by its anchors', innermost first.
Path = Tuple[IndexLevel, ...]
#: A segment tree's name: the path of the node it hangs from (``()`` for T1).
TreeId = Tuple[IndexLevel, ...]


# ---------------------------------------------------------------------------
# Figure 2 heap arithmetic
# ---------------------------------------------------------------------------
def left_child_index(x: int) -> int:
    """Heap index of the left child of index ``x`` (Figure 2: ``2x``)."""
    return 2 * x


def right_child_index(x: int) -> int:
    """Heap index of the right child of index ``x`` (Figure 2: ``2x + 1``)."""
    return 2 * x + 1


def ancestor_index(x: int, k: int) -> int:
    """Heap index of the ``k``-th ancestor of index ``x`` (``k = 0`` is ``x``)."""
    return x >> k


# ---------------------------------------------------------------------------
# paths and tree ids (Definition 2 / Lemma 1)
# ---------------------------------------------------------------------------
def make_path(index: int, level: int, tree_id: TreeId) -> Path:
    """The global path of node ``(index, level)`` inside tree ``tree_id``."""
    return ((int(index), int(level)),) + tuple(tree_id)


def is_valid_path(path: Path) -> bool:
    """Check the arithmetic a legal Definition 2 path must satisfy.

    Each pair must be a positive heap index with a non-negative level, and
    every consecutive pair ``(x, l), (a, L)`` must place ``x`` inside the
    subtree of anchor ``a``: ``l <= L`` and the ``(L - l)``-th ancestor of
    ``x`` must be ``a`` (the descendant root inherits the anchor's index,
    so the root itself satisfies this with ``l == L``).
    """
    if not isinstance(path, tuple) or not path:
        return False
    for pair in path:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            return False
        idx, lvl = pair
        if not (isinstance(idx, int) and isinstance(lvl, int)):
            return False
        if idx < 1 or lvl < 0:
            return False
    for (idx, lvl), (aidx, alvl) in zip(path, path[1:]):
        if lvl > alvl:
            return False
        if ancestor_index(idx, alvl - lvl) != aidx:
            return False
    return True
