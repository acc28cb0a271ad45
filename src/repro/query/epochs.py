"""Folding per-epoch answers: the query side of the logarithmic method.

Range search is *decomposable* (Bentley, the paper's reference [4]): the
answer over a union of disjoint structures is a fold of the per-structure
answers.  The dynamized distributed tree
(:mod:`repro.dist.dynamic`) keeps the point set as several static
"epochs" — power-of-two bucket forests plus a rank-resident update
buffer — so every user query becomes (a) one *epoch sub-query* run
against each bucket through the ordinary engine, (b) a buffer scan, and
(c) a final fold implemented here.

The fold is not uniform across output modes, because only the *raw*
answers decompose — post-processing does not:

* ``count`` / ``aggregate`` fold ⊕ over epochs; tombstoned (deleted but
  not yet compacted) points are subtracted, which for aggregates needs
  an :class:`~repro.semigroup.group.AbelianGroup` (the paper's
  "associative functions with inverses" footnote);
* ``report`` / ``sample`` / ``topk`` decompose over *matching id sets*:
  each epoch answers a plain unlimited report, ids merge, tombstones
  filter out, and only then does the mode's finalisation (limit
  truncation, seeded sampling, top-k selection) apply — truncating or
  sampling per epoch first would be wrong.

:class:`EpochCombiner` packages exactly this: build it from the user
batch, run :meth:`epoch_batch` against every bucket, then hand the
per-epoch values plus the buffer/tombstone side information to
:meth:`finalize_all`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence

from ..errors import ReproError
from ..semigroup import Semigroup, top_k_ids
from ..semigroup.group import AbelianGroup
from .descriptors import Query, QueryBatch
from .modes import get_mode

__all__ = ["EpochCombiner"]

#: output modes whose epoch sub-query is an unlimited report (the answer
#: decomposes over matching *ids*, with finalisation applied globally)
_ID_MODES = frozenset({"report", "sample", "topk"})


class EpochCombiner:
    """Fold one batch's per-epoch answers into the global answers.

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
    # the per-epoch sub-batch
    # ------------------------------------------------------------------
    def epoch_query(self, q: Query) -> Query:
        """The sub-query each bucket answers for ``q``.

        Fold-family queries pass through unchanged; id-family queries
        become unlimited reports (limits, sampling and top-k selection
        are *not* decomposable and apply only after the merge).
        """
        if q.mode in _ID_MODES:
            return Query(box=q.box, mode="report")
        return q

    def epoch_batch(self, replication: str = "doubling") -> QueryBatch:
        return QueryBatch(
            [self.epoch_query(q) for q in self.batch], replication=replication
        )

    def semigroup_for(self, q: Query) -> Semigroup:
        return q.semigroup if q.semigroup is not None else self.base

    def empty_epoch_values(self) -> List[Any]:
        """What one epoch answers when *no* record can match the batch.

        Exactly what running :meth:`epoch_batch` against an epoch with an
        empty match set would return — 0 for counts, the semigroup
        identity for aggregates, no ids for the report-family sub-queries
        — so a caller that can prove emptiness (e.g. bucket bounding-box
        pruning in :mod:`repro.dist.dynamic`) may substitute this list
        for a whole Search pass.
        """
        out: List[Any] = []
        for q in self.batch:
            if q.mode == "count":
                out.append(0)
            elif q.mode == "aggregate":
                out.append(self.semigroup_for(q).identity)
            else:  # id family: the epoch sub-query is an unlimited report
                out.append([])
        return out

    # ------------------------------------------------------------------
    # the global fold
    # ------------------------------------------------------------------
    def finalize_all(
        self,
        epoch_values: Sequence[Sequence[Any]],
        buffered_ids: Dict[int, List[int]],
        dead_ids: Dict[int, List[int]],
    ) -> List[Any]:
        """Fold per-epoch answers into one answer per query.

        ``epoch_values[e][qid]`` is epoch ``e``'s answer to sub-query
        ``qid``; ``buffered_ids[qid]`` are matching ids still in the
        update buffer (always live); ``dead_ids[qid]`` are matching
        tombstoned ids (present in some bucket but deleted).
        """
        return [
            self._finalize_one(
                qid,
                q,
                [epoch[qid] for epoch in epoch_values],
                buffered_ids.get(qid, []),
                dead_ids.get(qid, []),
            )
            for qid, q in enumerate(self.batch)
        ]

    def _finalize_one(
        self,
        qid: int,
        q: Query,
        values: List[Any],
        buffered: List[int],
        dead: List[int],
    ) -> Any:
        if q.mode == "count":
            return int(sum(values)) + len(buffered) - len(dead)
        if q.mode == "aggregate":
            sg = self.semigroup_for(q)
            total = sg.fold(values)
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
        # id family: merge epochs' ids, drop tombstones, then finalise
        drop = set(dead)
        ids = sorted(
            [pid for epoch_ids in values for pid in epoch_ids if pid not in drop]
            + list(buffered)
        )
        if q.mode == "topk":
            sg = top_k_ids(q.option("k"), q.option("dim", 0))
            best = sg.fold(
                sg.lift(pid, self.coords_of(pid)) for pid in ids
            )
            return [pid for _coord, pid in best]
        return get_mode(q.mode).finalize(ids, q)
