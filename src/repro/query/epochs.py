"""The buffer and the tombstones: the query side of the logarithmic method.

Range search is *decomposable* (Bentley, the paper's reference [4]): the
answer over a union of disjoint structures is a fold of the per-structure
answers.  The dynamized distributed tree (:mod:`repro.dist.dynamic`)
keeps the point set as power-of-two bucket forests — static "epochs" —
plus a small driver-side update buffer, so every user query becomes an
*epoch sub-query* that (a) the buckets answer together, as the parts of
one Search pass whose demux folds every bucket's pieces under the query
id — the cross-epoch fold *is* the pass's fold — and (b) a match
against the buffer answers.  What is left, the correction, is
implemented here.

It is not uniform across output modes, because only the *raw* answers
decompose — post-processing does not:

* ``count`` / ``aggregate`` pass through: the buffered matches are
  added (⊕), tombstoned (deleted but not yet compacted) points are
  subtracted, which for aggregates needs an
  :class:`~repro.semigroup.group.AbelianGroup` (the paper's
  "associative functions with inverses" footnote) — except a count
  aggregate, which corrects like ``count``;
* ``report`` / ``sample`` / ``topk`` decompose over *matching id sets*:
  the sub-query is a plain unlimited report, buffered ids merge in,
  tombstones filter out, and only then does the mode's finalisation
  (limit truncation, seeded sampling, top-k selection) apply —
  truncating or sampling before the merge would be wrong.

:class:`EpochCombiner` packages exactly this: build it from the user
batch, run :meth:`epoch_batch` through the pass, then hand the pass's
answers plus the buffer/tombstone side information to
:meth:`finalize_all`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from ..errors import ReproError
from ..semigroup import Semigroup, is_count, top_k_ids
from ..semigroup.group import AbelianGroup
from .descriptors import Query, QueryBatch
from .modes import get_mode

__all__ = ["EpochCombiner"]

#: output modes whose epoch sub-query is an unlimited report (the answer
#: decomposes over matching *ids*, with finalisation applied globally)
_ID_MODES = frozenset({"report", "sample", "topk"})


class EpochCombiner:
    """Correct one batch's pass answers for the buffer and the tombstones.

    ``coords_of`` resolves a point id to its coordinates — it must cover
    both live and tombstoned ids, because aggregate subtraction and
    global top-k selection re-lift points by id.
    """

    def __init__(
        self,
        batch: QueryBatch,
        base_semigroup: Semigroup,
        dim: int,
        coords_of: Callable[[int], Sequence[float]],
    ) -> None:
        self.batch = batch
        self.base = base_semigroup
        self.coords_of = coords_of
        for q in batch:
            mode = get_mode(q.mode)  # raises on unknown modes
            mode.validate(q, dim)
            if q.mode not in _ID_MODES and q.mode not in ("count", "aggregate"):
                raise ReproError(
                    f"output mode {q.mode!r} does not declare an epoch fold"
                )

    # ------------------------------------------------------------------
    # the sub-batch the buckets answer
    # ------------------------------------------------------------------
    def epoch_query(self, q: Query) -> Query:
        """The sub-query the buckets answer for ``q``.

        Fold-family queries pass through unchanged; id-family queries
        become unlimited reports (limits, sampling and top-k selection
        are *not* decomposable and apply only after the merge).
        """
        if q.mode in _ID_MODES:
            return Query(box=q.box, mode="report")
        return q

    def epoch_batch(self) -> QueryBatch:
        return QueryBatch([self.epoch_query(q) for q in self.batch])

    def semigroup_for(self, q: Query) -> Semigroup:
        return q.semigroup if q.semigroup is not None else self.base

    # ------------------------------------------------------------------
    # the correction
    # ------------------------------------------------------------------
    def finalize_all(
        self,
        values: "Sequence[Any] | None",
        buffered_ids: Dict[int, List[int]],
        dead_ids: Dict[int, List[int]],
    ) -> List[Any]:
        """The global answer of every query.

        ``values[qid]`` is the buckets' answer to sub-query ``qid``
        (``None``: no bucket was searched — nothing matched there);
        ``buffered_ids[qid]`` are matching ids still in the update
        buffer (always live); ``dead_ids[qid]`` are matching tombstoned
        ids (present in some bucket but deleted).  Every id list ascends
        — the buckets' too — and aggregates fold them in that order.
        """
        return [
            self._finalize_one(
                q,
                None if values is None else values[qid],
                buffered_ids.get(qid, []),
                dead_ids.get(qid, []),
            )
            for qid, q in enumerate(self.batch)
        ]

    def _finalize_one(
        self, q: Query, value: Any, buffered: List[int], dead: List[int]
    ) -> Any:
        if q.mode == "count" or (
            q.mode == "aggregate" and is_count(self.semigroup_for(q))
        ):
            # a count aggregate is a count: it corrects without an inverse
            return (value or 0) + len(buffered) - len(dead)
        if q.mode == "aggregate":
            sg = self.semigroup_for(q)
            total = sg.identity if value is None else value
            for pid in buffered:
                total = sg.combine(total, sg.lift(pid, self.coords_of(pid)))
            if not dead:
                return total
            if not isinstance(sg, AbelianGroup):
                raise ReproError(
                    "aggregate with deletions requires an AbelianGroup "
                    "(the paper's 'associative functions with inverses')"
                )
            gone = sg.identity
            for pid in dead:
                gone = sg.combine(gone, sg.lift(pid, self.coords_of(pid)))
            return sg.subtract(total, gone)
        # id family: merge the buffered ids, drop tombstones, then finalise
        drop = set(dead)
        ids = sorted([pid for pid in value or () if pid not in drop] + buffered)
        if q.mode == "topk":
            sg = top_k_ids(q.option("k"), q.option("dim", 0))
            best = sg.fold(
                sg.lift(pid, self.coords_of(pid)) for pid in ids
            )
            return [pid for _coord, pid in best]
        return get_mode(q.mode).finalize(ids, q)
