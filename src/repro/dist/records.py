"""What Construct and Search ship between virtual processors (§5).

Every record stream moves as a :class:`~repro.cgm.columns.RecordBatch`;
the schemas, by stage:

==========================  ================================================
``dist.srecord``            Construct's §5 record: ``tree_id`` (the
                            Definition 2 id of the segment tree the point
                            is being inserted into, an ``(n, 2j)`` matrix
                            in phase ``j``), ``ranks`` ``(n, d)``, ``pid``
                            (negative for power-of-two padding sentinels),
                            ``value`` (the lifted semigroup value)
``dist.hat_selection``      Search step 1: ``qid``, ``node`` (the hat row
                            of a selected dimension-``d`` node),
                            ``nleaves``, ``agg`` (its ``f(v)``)
``dist.search.routing``     Search step 4: ``kind``, ``qid``, ``los``,
                            ``his``, ``element``, ``location`` — a
                            subquery (:data:`KIND_SUBQUERY`: the query's
                            full rank box, continued inside ``element``)
                            or an expansion request (:data:`KIND_EXPAND`:
                            box zeroed; the owner reports every point of
                            ``element``), sharing one exchange round
``dist.forest_selection``   Search step 5: ``qid``, ``element``,
                            ``nleaves``, ``agg``
``dist.report_pair``        Search step 5: ``qid``, ``pid``
==========================  ================================================

Two formats name a node, each used where Lemma 1 needs it.  Construct
runs before the hat exists, so it routes by *label*: the Definition 2
path, flattened to ints.  Search runs on the replicated hat, so a hat
row *is* a global name: ``node`` is a hat row, ``element`` the hat-leaf
row whose forest element it roots (``hat.path(row)`` is its label,
``hat.shape.location[row]`` its owner; part ``b`` of a pass names its
row ``i`` as ``b·H + i``, every hat on ``(p, d)`` having ``H`` rows).  ``agg`` and ``value`` columns are a
:class:`~repro.semigroup.kernels.KernelColumn` when a kernel encodes
the values, an object array otherwise.

:class:`ForestRootInfo` lists ride Construct's step-5 broadcast as plain
records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

from .labeling import Path, TreeId, tree_id_of

__all__ = [
    "ForestRootInfo",
    "KIND_SUBQUERY",
    "KIND_EXPAND",
    "flatten_path",
    "unflatten_path",
]

#: ``kind`` of a ``dist.search.routing`` row.
KIND_SUBQUERY = 0
KIND_EXPAND = 1


@dataclass(frozen=True, slots=True)
class ForestRootInfo:
    """What Construct step 5 broadcasts about one forest element.

    ``path`` is the element's name — the path of the hat leaf it hangs
    below (Definition 3) — and ``seg`` the closed rank interval its
    primary segment tree covers in dimension ``dim``.  ``location`` is
    the owning processor (its group rank mod ``p``), ``tree`` the
    element's index in the owner's dimension-``dim`` stack, and ``agg``
    the semigroup value of all its points, which seeds the hat's
    ``f(v)`` annotations.
    """

    path: Path
    dim: int
    seg: Tuple[int, int]
    nleaves: int
    location: int
    tree: int
    agg: Any

    @property
    def tree_id(self) -> TreeId:
        """Id of the segment tree whose hat this root's leaf belongs to."""
        return tree_id_of(self.path)


def flatten_path(path: Path) -> List[int]:
    """A Definition 2 path as a flat int list (``(i, l)`` pairs in order)."""
    return [x for pair in path for x in pair]


def unflatten_path(row: Sequence[int]) -> Path:
    """Inverse of :func:`flatten_path` (yields plain Python ints)."""
    return tuple(
        (int(row[i]), int(row[i + 1])) for i in range(0, len(row), 2)
    )
