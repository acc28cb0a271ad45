"""Record types exchanged between virtual processors (§5, Algorithms
Construct and Search).

Every CGM round of the distributed range tree routes one of these small,
immutable record types.  Keeping them frozen dataclasses makes the
simulated communication honest: a record received by another virtual
processor cannot be mutated in place to smuggle information a real
message could not carry.

* :class:`SRecord` — the construction record of §5: a point (its global
  rank vector, id, and lifted semigroup value) tagged with the id of the
  segment tree it is currently being inserted into.  Phase ``j`` of
  Algorithm Construct sorts ``SRecord``s by ``(tree_id, rank_j)``.
* :class:`ForestRootInfo` — the summary of one forest element broadcast
  in Construct step 5, from which every processor rebuilds the hat.
* :class:`HatSelectionRecord` — a dimension-``d`` hat node selected by a
  query during Algorithm Search step 1 (the hat walk).
* :class:`Subquery` — the continuation of a query into one forest
  element (Search steps 2-4 route and balance these).
* :class:`ForestSelection` — a dimension-``d`` node selected inside a
  forest element by a subquery (Search step 5).
* :class:`ExpandRequest` — a report-family query asking the owner of a
  forest element to expand a hat selection into point ids; rides the
  Search step-4 routing round so mixed-mode batches need no extra round.

The dataclasses are the *per-record view*; the streams themselves move
as column packs (:mod:`repro.cgm.columns`).  Every stream some round
ships registers a :class:`~repro.cgm.columns.RecordCodec` here — paths
and tree ids flatten into ragged int64 columns, rank vectors into
``(n, d)`` matrices, and only semigroup values without a kernel stay an
object column — so ``RecordBatch.from_records`` / lazy iteration
round-trip each stream exactly (property-tested in
``tests/test_columns.py``).  :class:`ForestRootInfo` lists ride the
step-5 broadcast as plain records and need no codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

import numpy as np

from ..cgm.columns import Ragged, RecordCodec, obj_col as _obj_col, register_codec
from .labeling import Path, TreeId, make_path, tree_id_of

__all__ = [
    "SRecord",
    "ForestRootInfo",
    "HatSelectionRecord",
    "Subquery",
    "ForestSelection",
    "ExpandRequest",
    "flatten_path",
    "unflatten_path",
]


@dataclass(frozen=True, slots=True)
class SRecord:
    """One point being inserted into one segment tree (§5, Construct).

    ``tree_id`` names the segment tree (Definition 2); ``ranks`` is the
    point's full global rank vector; ``pid`` its point id (negative for
    power-of-two padding sentinels); ``value`` its lifted semigroup value.
    """

    tree_id: TreeId
    ranks: Tuple[int, ...]
    pid: int
    value: Any


@dataclass(frozen=True, slots=True)
class ForestRootInfo:
    """What Construct step 5 broadcasts about one forest element.

    ``path`` is the element's name — the path of the hat leaf it hangs
    below (Definition 3) — and ``seg`` the closed rank interval its
    primary segment tree covers in dimension ``dim``.  ``location`` is
    the owning processor (``group_rank mod p``) and ``agg`` the semigroup
    value of all its points, which seeds the hat's ``f(v)`` annotations.
    """

    path: Path
    dim: int
    seg: Tuple[int, int]
    nleaves: int
    location: int
    group_rank: int
    agg: Any

    @property
    def tree_id(self) -> TreeId:
        """Id of the segment tree whose hat this root's leaf belongs to."""
        return tree_id_of(self.path)


@dataclass(frozen=True, slots=True)
class HatSelectionRecord:
    """A dimension-``d`` hat node selected for query ``qid`` (Search step 1).

    ``agg`` is the precomputed ``f(v)`` of the node (``None`` when the
    caller only needs leaf counts).  For a reporting query,
    ``forest_ids``/``locations`` name the forest elements tiling the
    node's leaves so the pass can expand the selection into point ids
    (Theorem 5).
    """

    qid: int
    path: Path
    nleaves: int
    agg: Any = None
    forest_ids: Tuple[Path, ...] = ()
    locations: Tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class Subquery:
    """A query continuation aimed at one forest element (Search step 2).

    ``los``/``his`` reproduce the full rank-space query box; the element
    resumes the canonical walk in its own dimension.  ``location`` is the
    element's *owner* — steps 3-4 may route the subquery to a replica
    instead when the owner is oversubscribed.
    """

    qid: int
    los: Tuple[int, ...]
    his: Tuple[int, ...]
    forest_id: Path
    location: int


@dataclass(frozen=True, slots=True)
class ForestSelection:
    """A dimension-``d`` node selected inside a forest element (Search
    step 5); a reporting query's points leave the step beside it, as
    ``dist.report_pair`` rows."""

    qid: int
    forest_id: Path
    nleaves: int
    agg: Any


@dataclass(frozen=True, slots=True)
class ExpandRequest:
    """Ask a forest element's owner for the point ids under a hat selection.

    Emitted during the hat walk for queries whose output mode needs the
    actual points (report family); routed to ``location`` — the element's
    *owner*, which always keeps its store — in the same exchange as the
    :class:`Subquery` records, so expansion adds no communication round.
    """

    qid: int
    forest_id: Path
    location: int


# ---------------------------------------------------------------------------
# columnar codecs: the batch-packed view of each record stream
# ---------------------------------------------------------------------------
def flatten_path(path: Path) -> List[int]:
    """A Definition 2 path as a flat int list (``(i, l)`` pairs in order)."""
    return [x for pair in path for x in pair]


def unflatten_path(row: Sequence[int]) -> Path:
    """Inverse of :func:`flatten_path` (yields plain Python ints)."""
    return tuple(
        (int(row[i]), int(row[i + 1])) for i in range(0, len(row), 2)
    )


def _path_col(paths: Sequence[Path]) -> Ragged:
    return Ragged.from_rows([flatten_path(p) for p in paths])


def _int_col(values) -> np.ndarray:
    return np.fromiter(values, dtype=np.int64, count=-1)


def _rank_matrix(rows: Sequence[Sequence[int]]) -> np.ndarray:
    if not rows:
        return np.empty((0, 0), dtype=np.int64)
    return np.asarray([tuple(r) for r in rows], dtype=np.int64)


class SRecordCodec(RecordCodec):
    """``SRecord`` ⇄ columns ``tree_id`` (ragged), ``ranks``, ``pid``, ``value``.

    Within one Construct phase every tree id has the same length, so the
    ragged column doubles as a fixed-width key matrix for the phase sort.
    """

    name = "dist.srecord"
    record_type = SRecord

    def pack(self, records):
        return {
            "tree_id": _path_col([r.tree_id for r in records]),
            "ranks": _rank_matrix([r.ranks for r in records]),
            "pid": _int_col(r.pid for r in records),
            "value": _obj_col([r.value for r in records]),
        }

    def unpack(self, cols, i):
        return SRecord(
            tree_id=unflatten_path(cols["tree_id"].row(i)),
            ranks=tuple(int(x) for x in cols["ranks"][i]),
            pid=int(cols["pid"][i]),
            value=cols["value"][i],
        )


class HatSelectionColsCodec(RecordCodec):
    """Hat selections as the batched walk packs them (no object column
    for the tiling): ``locations`` is a ragged row per selection and the
    ``forest_ids`` are *reconstructed arithmetically* on unpack — the
    leaves under node ``(idx, lvl)`` are the contiguous heap range
    ``[idx·2^h, (idx+1)·2^h)`` at level ``lvl − h`` of the same tree,
    where ``2^h`` is the row width (Definition 2).  ``agg`` follows
    ``dist.forest_selection``'s contract: a typed
    :class:`~repro.semigroup.kernels.KernelColumn` when the hat is
    kernel-backed (rows decode on unpack), an object column otherwise.
    """

    name = "dist.hat_selection_cols"
    record_type = HatSelectionRecord

    def pack(self, records):
        return {
            "qid": _int_col(r.qid for r in records),
            "path": _path_col([r.path for r in records]),
            "nleaves": _int_col(r.nleaves for r in records),
            "agg": _obj_col([r.agg for r in records]),
            "locations": Ragged.from_rows([r.locations for r in records]),
        }

    def unpack(self, cols, i):
        path = unflatten_path(cols["path"].row(i))
        loc_row = cols["locations"].row(i)
        w = len(loc_row)
        fids: Tuple[Path, ...] = ()
        if w:
            h = w.bit_length() - 1
            idx, lvl = path[0]
            base = idx << h
            tid = path[1:]
            fids = tuple(make_path(base + k, lvl - h, tid) for k in range(w))
        return HatSelectionRecord(
            qid=int(cols["qid"][i]),
            path=path,
            nleaves=int(cols["nleaves"][i]),
            agg=cols["agg"][i],
            forest_ids=fids,
            locations=tuple(int(x) for x in loc_row),
        )


class ForestSelectionCodec(RecordCodec):
    name = "dist.forest_selection"
    record_type = ForestSelection

    def pack(self, records):
        return {
            "qid": _int_col(r.qid for r in records),
            "forest_id": _path_col([r.forest_id for r in records]),
            "nleaves": _int_col(r.nleaves for r in records),
            "agg": _obj_col([r.agg for r in records]),
        }

    def unpack(self, cols, i):
        return ForestSelection(
            qid=int(cols["qid"][i]),
            forest_id=unflatten_path(cols["forest_id"].row(i)),
            nleaves=int(cols["nleaves"][i]),
            agg=cols["agg"][i],
        )


class RoutingCodec(RecordCodec):
    """The Search step-4 routing stream: subqueries and expansion
    requests share one exchange round, so they share one batch schema.

    ``kind`` 0 packs a :class:`Subquery` (``los``/``his`` valid), kind 1
    an :class:`ExpandRequest` (box rows zeroed) — unpacking yields the
    original dataclass per row, preserving the mixed stream exactly.
    """

    name = "dist.search.routing"
    record_type = object  # mixed stream; resolved per row by `kind`

    KIND_SUBQUERY = 0
    KIND_EXPAND = 1

    def pack(self, records):
        d = 0
        for r in records:
            if isinstance(r, Subquery):
                d = len(r.los)
                break
        zeros = (0,) * d
        return {
            "kind": _int_col(
                self.KIND_SUBQUERY if isinstance(r, Subquery) else self.KIND_EXPAND
                for r in records
            ),
            "qid": _int_col(r.qid for r in records),
            "los": _rank_matrix(
                [r.los if isinstance(r, Subquery) else zeros for r in records]
            ),
            "his": _rank_matrix(
                [r.his if isinstance(r, Subquery) else zeros for r in records]
            ),
            "forest_id": _path_col([r.forest_id for r in records]),
            "location": _int_col(r.location for r in records),
        }

    def unpack(self, cols, i):
        if int(cols["kind"][i]) == self.KIND_EXPAND:
            return ExpandRequest(
                qid=int(cols["qid"][i]),
                forest_id=unflatten_path(cols["forest_id"].row(i)),
                location=int(cols["location"][i]),
            )
        return Subquery(
            qid=int(cols["qid"][i]),
            los=tuple(int(x) for x in cols["los"][i]),
            his=tuple(int(x) for x in cols["his"][i]),
            forest_id=unflatten_path(cols["forest_id"].row(i)),
            location=int(cols["location"][i]),
        )


class ReportPairCodec(RecordCodec):
    """Search step 5's report output: plain ``(qid, pid)`` pairs as two int columns."""

    name = "dist.report_pair"
    record_type = object  # the per-record view is a plain tuple

    def pack(self, records):
        return {
            "qid": _int_col(q for q, _ in records),
            "pid": _int_col(pid for _, pid in records),
        }

    def unpack(self, cols, i):
        return (int(cols["qid"][i]), int(cols["pid"][i]))


for _codec in (
    SRecordCodec(),
    HatSelectionColsCodec(),
    ForestSelectionCodec(),
    RoutingCodec(),
    ReportPairCodec(),
):
    register_codec(_codec)
