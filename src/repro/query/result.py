"""Structured results: per-query answers plus the metrics that produced them.

A :class:`ResultSet` is what :meth:`QueryEngine.run` (and the facade's
``tree.run``) returns: a :class:`QueryResult` per query, in batch order,
built when read, with the superstep trace of the pass that answered them.
The shape is the stable public contract — downstream callers (CLI
``--json``, benchmarks, services) consume this rather than raw
selection records, so the engine internals can keep evolving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

from ..cgm.metrics import Metrics
from .descriptors import Query

__all__ = ["QueryResult", "ResultSet"]


@dataclass(frozen=True)
class QueryResult:
    """One answered query: its descriptor, its mode, and its value."""

    qid: int
    mode: str
    query: Query
    value: Any


def _json_safe(value: Any) -> Any:
    """Recursively coerce answer values into JSON-serialisable shapes."""
    if isinstance(value, (frozenset, set)):
        return sorted(_json_safe(v) for v in value)
    if isinstance(value, (tuple, list)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if hasattr(value, "item"):  # numpy scalars
        return value.item()
    return value


class ResultSet(Sequence):
    """Answers to one batch, in query order, with pass-level metrics.

    ``values()`` gives the bare answers; indexing or iterating builds
    :class:`QueryResult` records on access; :attr:`metrics` is the trace
    of *this pass only* (search + demultiplex + any lazy refit), so
    ``rs.rounds`` is the Theorem 3-5 observable for the batch.
    """

    def __init__(
        self,
        queries: Sequence[Query],
        answers: Sequence[Any],
        metrics: Metrics,
    ) -> None:
        self._queries = tuple(queries)
        self._answers = tuple(answers)
        self.metrics = metrics

    # -- sequence protocol over per-query results --------------------------
    def __len__(self) -> int:
        return len(self._answers)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[qid] for qid in range(len(self))[i])
        qid = range(len(self))[i]
        query = self._queries[qid]
        return QueryResult(qid, query.mode, query, self._answers[qid])

    # -- answers -----------------------------------------------------------
    def values(self) -> List[Any]:
        """The bare answers, one per query, in batch order."""
        return list(self._answers)

    def value(self, i: int) -> Any:
        return self._answers[i]

    def by_mode(self, mode: str) -> List[QueryResult]:
        """The results of one output mode, still in batch order."""
        return [self[i] for i, q in enumerate(self._queries) if q.mode == mode]

    def modes(self) -> set:
        return {q.mode for q in self._queries}

    # -- metrics observables -----------------------------------------------
    @property
    def rounds(self) -> int:
        """Communication rounds consumed answering this batch."""
        return self.metrics.rounds

    @property
    def max_h(self) -> int:
        return self.metrics.max_h

    def to_dict(self) -> dict:
        """JSON-safe dict: the machine-readable contract of ``--json``.

        Deterministic by construction — bit-identical across backends and
        runs for the same batch.  Wall-clock (which no two runs share) is
        reported separately, under the top-level ``"wall_seconds"`` key,
        never inside the metric summaries.
        """

        def deterministic(summary: dict) -> dict:
            return {k: v for k, v in summary.items() if k != "critical_seconds"}

        return {
            "queries": [
                {
                    "qid": r.qid,
                    "mode": r.mode,
                    "box": [
                        [float(lo), float(hi)]
                        for lo, hi in zip(r.query.box.lo, r.query.box.hi)
                    ],
                    "value": _json_safe(r.value),
                }
                for r in self
            ],
            "metrics": deterministic(self.metrics.summary()),
            "phases": {
                ph: deterministic(s)
                for ph, s in self.metrics.phase_summary().items()
            },
            "wall_seconds": round(self.metrics.critical_seconds, 6),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        modes = ", ".join(sorted(self.modes()))
        return (
            f"ResultSet(n={len(self)}, modes=[{modes}], "
            f"rounds={self.rounds}, max_h={self.max_h})"
        )
