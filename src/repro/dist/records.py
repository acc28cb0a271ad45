"""What Construct and Search ship between virtual processors (§5).

Every record stream moves as a :class:`~repro.cgm.columns.RecordBatch`;
the schemas, by stage:

==========================  ================================================
``dist.srecord``            Construct's §5 record: ``key`` (its phase-``j``
                            sort key ``tree·n + rank_j``, ``tree`` the
                            segment tree the point is being inserted into,
                            as its rank among the phase's tree labels),
                            ``ranks`` ``(n, d)``, ``pid`` (negative for
                            power-of-two padding sentinels); no value:
                            Construct builds topology only
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
``dist.root``               Construct step 5 and every refit's broadcast:
                            ``row`` (a forest element's hat-leaf row),
                            ``lo``, ``hi`` (the closed rank segment it
                            covers), ``agg`` (its root aggregate)
==========================  ================================================

A node has one name from Construct to Search: its row in the ``(p, d)``
:class:`~repro.dist.hat.HatShape`, which precedes both.  Construct's
tree keys and group numbers are read off the shape; in Search,
``node`` is a hat row and ``element`` the hat-leaf row whose forest
element it roots (``hat.path(row)`` is its Definition 2 label,
``hat.shape.location[row]`` its owner; part ``b`` of a pass names its
row ``i`` as ``b·H + i``, every hat on ``(p, d)`` having ``H`` rows).
``agg`` columns are a
:class:`~repro.semigroup.kernels.KernelColumn` under the annotation's
kernel; every other column is int64.
"""

from __future__ import annotations

from typing import List, Sequence

from .labeling import Path

__all__ = ["KIND_SUBQUERY", "KIND_EXPAND", "flatten_path", "unflatten_path"]

#: ``kind`` of a ``dist.search.routing`` row.
KIND_SUBQUERY = 0
KIND_EXPAND = 1


def flatten_path(path: Path) -> List[int]:
    """A Definition 2 path as a flat int list (``(i, l)`` pairs in order)."""
    return [x for pair in path for x in pair]


def unflatten_path(row: Sequence[int]) -> Path:
    """Inverse of :func:`flatten_path` (yields plain Python ints)."""
    return tuple(
        (int(row[i]), int(row[i + 1])) for i in range(0, len(row), 2)
    )
