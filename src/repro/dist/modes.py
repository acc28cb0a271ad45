"""The per-query fold behind the associative-function mode (§5, Theorem 4).

Algorithm Search leaves every query's answer scattered across the
machine as O(log^d n) selection pieces.  ``⊕`` is commutative — the
paper's standing assumption — so the query engine
(:mod:`repro.query.engine`) lets every rank fold its own pieces of a
query first, sends the one partial value per (rank, query) to the
query's home rank in a single round, and folds once more there.  Both
folds are the same function over qid-sorted rows: a typed group's runs
fold as array segments (:func:`repro.semigroup.kernels.fold_segments`),
every other group's through ``combine`` with :func:`accumulate_runs`.
Which rank's pieces come first is therefore unspecified, as is how hat
and forest pieces interleave.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Tuple

__all__ = ["accumulate_runs"]


def accumulate_runs(
    ordered: Iterable[Tuple[int, Any]], op: Callable[[Any, Any], Any]
) -> List[Tuple[int, Any]]:
    """Run totals of qid-sorted ``(qid, value)`` pieces (left fold under
    ``op``): one ``(qid, total)`` per query, in order."""
    runs: List[Tuple[int, Any]] = []
    for qid, val in ordered:
        if runs and runs[-1][0] == qid:
            runs[-1] = (qid, op(runs[-1][1], val))
        else:
            runs.append((qid, val))
    return runs
