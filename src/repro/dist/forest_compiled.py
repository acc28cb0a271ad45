"""Batched forest walks: Search step 5 over the stacks' arrays.

A rank's inbox reaches a few stacks — its own group's, one per
dimension and part, and the replicated copies it holds.  This module
supplies the dist-side consumer of
:class:`~repro.seq.compiled.CompiledForest`: one walk per stack for the
subqueries aimed at it, one gather from its ``pids`` for the expansion
requests, packed straight into the ``dist.forest_selection`` and
``dist.report_pair`` columns.

The contract is bit-identity with a per-subquery
:meth:`~repro.seq.range_tree.RangeTree.canonical` loop over each
element's points: same selections in the same order (inbox row order,
emission order within a row), same charged visit totals.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

import numpy as np

from .._util import slice_positions
from ..semigroup.kernels import KernelColumn
from ..seq.compiled import CompiledForest
from .records import KIND_SUBQUERY

__all__ = ["stack_selections"]

_I64 = np.int64


def stack_selections(
    groups: Sequence[Tuple[CompiledForest, int, np.ndarray]],
    tree: np.ndarray,
    los: np.ndarray,
    his: np.ndarray,
    report: np.ndarray,
    charge: Callable[[int], None],
) -> Tuple[np.ndarray, np.ndarray, Any, np.ndarray, np.ndarray]:
    """Search step 5 over one rank's inbox: one walk per stack.

    ``groups`` holds a ``(stack, kind, rows)`` triple per stack and row
    kind the inbox holds — the inbox rows (ascending) of that kind aimed
    at that stack; ``tree`` (each row's tree index in its stack), the
    bound matrices ``los``/``his`` and ``report`` (does the row's query
    consume point ids) are per inbox row.  A stack's subqueries are one
    :meth:`~repro.seq.compiled.CompiledForest.walk`, charged ``max(1,
    visits)`` each; its expansion requests are one gather from the
    stack's ``pids``, charged a tree's width each.

    Returns ``(sel_rows, nleaves, agg_col, pair_rows, pair_pids)``.  The
    first three run over all selections in inbox-row order (emission
    order within a row): each selection's source inbox row, its leaf
    count and the ``agg`` column (typed when the stacks are annotated
    under a kernel — a pass's parts share their annotation).  The last
    two are the reported points with their source rows (padding
    sentinels included): those under each reporting row's selections in
    selection order, then each expanded element's in request order.
    """
    n = len(tree)
    walked: List[Tuple[CompiledForest, Any]] = []
    # the reported points as pieces: (source row key, lengths, ids)
    sel_pieces: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    exp_pieces: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for stack, kind, rows in groups:
        if kind == KIND_SUBQUERY:
            sel = stack.walk(los[rows], his[rows], tree[rows])
            charge(int(np.maximum(sel.visits, 1).sum()))
            walked.append((stack, sel))
            src = rows[sel.q]
            lens = np.where(report[src], sel.length, 0)
            sel_pieces.append((src, lens, stack.pids[stack.rows_flat(sel.off, lens)]))
        else:
            # rows ascend in the element's own dimension: the order the
            # hat-side expansion has always emitted
            lens = np.full(len(rows), stack.width, dtype=_I64)
            charge(int(lens.sum()))
            # keyed past every selection: expansions come last
            exp_pieces.append((rows + n, lens, stack.pids[slice_positions(tree[rows] * stack.width, lens)]))

    keys, lens, flat = (np.concatenate(col) for col in zip(*sel_pieces, *exp_pieces))
    # groups carve the inbox into disjoint row sets and each group's
    # selections are already (row, emission)-ordered, so one stable sort
    # by source row restores inbox-row order; the selections, keyed below
    # n, come first and in the order the walks emitted them
    perm = np.argsort(keys, kind="stable")
    sel = perm[: sum(len(s.node) for _st, s in walked)]
    if len(sel):
        nleaves = np.concatenate([s.length for _st, s in walked])[sel]
        first = walked[0][0]
        if first.agg_mat is not None:
            aggs = [st.agg_mat.take(s.node, axis=0) for st, s in walked]
            agg_col: Any = KernelColumn(first.agg_kernel, np.concatenate(aggs)[sel])
        else:
            agg_col = np.concatenate([st.agg_obj[s.node] for st, s in walked])[sel]
    else:
        nleaves, agg_col = np.empty(0, dtype=_I64), np.empty(0, dtype=object)
    starts, lens = (np.cumsum(lens) - lens)[perm], lens[perm]
    pair_rows = np.repeat(keys[perm] % n, lens)
    return keys[sel], nleaves, agg_col, pair_rows, flat[slice_positions(starts, lens)]
