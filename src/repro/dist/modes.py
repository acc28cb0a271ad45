"""The segmented run-fold behind the output modes (§5, Theorems 4 and 5).

Algorithm Search leaves every query's answer scattered across the
machine as O(log^d n) selection pieces.  The query engine
(:mod:`repro.query.engine`) sorts *all* pieces of a batch — counts,
semigroup values, point ids — by query id in one shared sample sort
(4 rounds; its balanced output is Theorem 5's ``ceil(k/p)`` term), then
folds the fold-family pieces per query with the functions here:

* :func:`accumulate_runs` — the per-rank half: a left fold over one
  rank's qid-sorted pieces, leaving one ``(qid, total)`` per local run;
* :func:`resolve_sorted_runs` — the cross-rank half: a query's run may
  straddle processor boundaries, so one all-gather of run summaries
  resolves carries and decides which rank emits each query (1 round,
  regardless of ``n``);
* :func:`fold_sorted_runs` — both halves in one call.

All assume a commutative semigroup, as the paper does: pieces of one
query are folded in global sorted order, which interleaves hat and
forest pieces arbitrarily.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from ..cgm.collectives import allgather
from ..cgm.machine import Machine

__all__ = ["fold_sorted_runs", "accumulate_runs", "resolve_sorted_runs"]


def accumulate_runs(
    ordered: List[Tuple[int, Any]], op: Callable[[Any, Any], Any]
) -> List[Tuple[int, Any]]:
    """Local run totals of one rank's qid-sorted pieces (left fold).

    The per-rank half of :func:`fold_sorted_runs`, exposed so callers
    with a vectorized equivalent — the query engine's kernel
    segmented reductions — can hand precombined runs straight to
    :func:`resolve_sorted_runs`.
    """
    runs: List[Tuple[int, Any]] = []
    for qid, val in ordered:
        if runs and runs[-1][0] == qid:
            runs[-1] = (qid, op(runs[-1][1], val))
        else:
            runs.append((qid, val))
    return runs


def fold_sorted_runs(
    mach: Machine,
    ordered: List[List[Tuple[int, Any]]],
    op: Callable[[Any, Any], Any],
    zero: Any,
    label: str,
) -> List[List[Tuple[int, Any]]]:
    """Segmented fold over qid-sorted pieces; one communication round.

    A query's run may straddle processor boundaries (the sort balances
    counts, not runs).  One all-gather of per-processor run summaries
    resolves both the carry *into* each processor's first run and
    whether its last run continues to the right; the processor holding a
    run's final piece emits the query's folded value, so every query is
    emitted exactly once.
    """
    return resolve_sorted_runs(
        mach, [accumulate_runs(o, op) for o in ordered], op, zero, label
    )


def resolve_sorted_runs(
    mach: Machine,
    local_runs: List[List[Tuple[int, Any]]],
    op: Callable[[Any, Any], Any],
    zero: Any,
    label: str,
) -> List[List[Tuple[int, Any]]]:
    """Resolve precombined local runs across ranks (the boundary round).

    ``local_runs[r]`` holds rank ``r``'s ``(qid, total)`` run totals in
    qid order (from :func:`accumulate_runs` or a vectorized fold); the
    cross-rank carry/emit protocol and its single all-gather round are
    identical however the totals were produced.
    """
    p = mach.p
    summaries: List[Tuple[bool, Any, Any, Any, bool]] = []
    for r in range(p):
        runs = local_runs[r]
        if runs:
            summaries.append(
                (True, runs[0][0], runs[-1][0], runs[-1][1], len(runs) == 1)
            )
        else:
            summaries.append((False, None, None, zero, True))

    info = allgather(mach, summaries, label=f"{label}:runs")[0]

    result: List[List[Tuple[int, Any]]] = []
    for r in range(p):
        runs = list(local_runs[r])
        if not runs:
            result.append([])
            continue
        # Carry into the first run from left neighbours ending in the same qid.
        first_qid = runs[0][0]
        carry = zero
        q = r - 1
        while q >= 0:
            nonempty, f_qid, l_qid, l_total, single = info[q]
            if not nonempty:
                q -= 1
                continue
            if l_qid != first_qid:
                break
            carry = op(l_total, carry)
            if not single:
                break
            q -= 1
        runs[0] = (first_qid, op(carry, runs[0][1]))
        # Drop the last run if it continues on a processor to the right
        # (that processor emits the completed fold).
        last_qid = runs[-1][0]
        for q in range(r + 1, p):
            nonempty, f_qid, _l, _t, _s = info[q]
            if not nonempty:
                continue
            if f_qid == last_qid:
                runs.pop()
            break
        result.append(runs)
    return result
