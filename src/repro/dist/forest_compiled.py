"""Batched forest walks: Search step 5 over the stacks' arrays.

A host runs step 5 once for all the ranks it holds (the serial backend
is one host of all ``p``, a process worker a host of a block).  Each rank's
inbox reaches a few stacks — its own group's, one per dimension and
part, and the replicated copies it holds.  This module supplies the
dist-side consumer of :class:`~repro.seq.compiled.CompiledForest`: one
walk per dimension over every distinct stack of that dimension the
block's subqueries aim at (one walk per distinct stack a host holds;
each rank's output and charge as if alone), one gather from a stack's
``pids`` for the expansion requests aimed at it, packed straight
into the ``dist.forest_selection`` and ``dist.report_pair`` columns rank
by rank, so the phase cuts each rank's output as a view.

The contract is bit-identity, per rank, with a per-subquery
``canonical`` loop of the tests' object reference
(``tests.helpers.RangeTree``) over each element's points: same
selections in the same order (the rank's inbox row order, emission
order within a row), same charged visit totals.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Sequence, Tuple

import numpy as np

from .._util import slice_positions
from ..semigroup.kernels import KernelColumn
from ..seq.compiled import CompiledForest

__all__ = ["stack_selections"]

_I64 = np.int64


def stack_selections(
    walks: Sequence[Sequence[Tuple[CompiledForest, np.ndarray]]],
    expansions: Sequence[Tuple[CompiledForest, np.ndarray]],
    tree: np.ndarray,
    los: np.ndarray,
    his: np.ndarray,
    report: np.ndarray,
    ends: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, Any, np.ndarray, np.ndarray, np.ndarray]:
    """Search step 5 over a host's inbox: one walk per dimension.

    The inbox is the block's ranks' inboxes laid end to end, rank ``s``'s
    rows ending before ``ends[s]``.  ``walks`` holds, per dimension the
    inbox's subqueries reach, a ``(stack, rows)`` pair per distinct
    stack of it they aim at (the rows ascending, from any of the block's
    ranks: a rank's own group's of every part and every replica it holds,
    a stack two ranks hold appearing once) — and ``expansions`` one per
    stack expansion requests aim at; ``tree`` (each row's tree index in its
    stack), the bound matrices ``los``/``his`` and ``report`` (does the
    row's query consume point ids) are per inbox row.  A dimension's
    subqueries are one :meth:`~repro.seq.compiled.CompiledForest.walk`
    over its stacks, costing ``max(1, visits)`` each; a stack's expansion
    requests are one gather from its ``pids``, costing a tree's width each.

    Returns ``(sel_rows, nleaves, agg_col, pair_rows, pair_pids, cost)``.
    The first three run over all selections in inbox-row order (emission
    order within a row): each selection's source inbox row, its leaf
    count and the ``agg`` column (under the stacks' kernel — a pass's
    parts share their annotation).  The next two are the reported points
    with their source rows (padding sentinels included), rank by rank:
    those under each of the rank's reporting rows' selections in
    selection order, then each element its rank expands in request
    order.  ``cost`` is each inbox row's charge.
    """
    n = len(tree)
    cost = np.empty(n, dtype=_I64)
    # a selection's pieces sort at row + its rank's start, an expansion's at
    # row + its rank's end: rank by rank, each rank's expansions after its
    # selections (one rank: keys below n are selections)
    ends = np.asarray(ends, dtype=_I64)
    first = np.concatenate(([0], ends[:-1]))  # each rank's first row
    rank = np.repeat(np.arange(len(ends)), ends - first)
    # the reported points as pieces (sort key, source row, lengths, ids),
    # and the selections' leaf counts and aggregates
    keys, srcs, lens, flat, nleaves, aggs = [], [], [], [], [], []
    for groups in walks:
        stacks = [stack for stack, _rows in groups]
        rows = np.concatenate([group for _stack, group in groups])
        sizes = [len(group) for _stack, group in groups]
        which = np.repeat(np.arange(len(groups)), sizes)
        sel = CompiledForest.walk(stacks, los[rows], his[rows], tree[rows], which)
        cost[rows] = np.maximum(sel.visits, 1)
        src = rows[sel.q]
        length = np.where(report[src], sel.length, 0)
        # selections come grouped by stack, a stack's ending where its
        # boxes do: gather each stack's slice from its own arrays
        cut = sel.q.searchsorted(list(accumulate(sizes))).tolist()
        for stack, a, b in zip(stacks, [0] + cut, cut):
            aggs.append(stack.aggs.take(sel.node[a:b]))
            flat.append(stack.pids[stack.rows_flat(sel.off[a:b], length[a:b])])
        keys.append(src + first[rank[src]])
        srcs.append(src)
        lens.append(length)
        nleaves.append(sel.length)
        del sel, length
    selected = sum(len(x) for x in nleaves)
    for stack, rows in expansions:
        # rows ascend in the element's own dimension: the order the
        # hat-side expansion has always emitted
        length = np.full(len(rows), stack.width, dtype=_I64)
        cost[rows] = length
        keys.append(rows + ends[rank[rows]])
        srcs.append(rows)
        lens.append(length)
        flat.append(stack.pids[slice_positions(tree[rows] * stack.width, length)])

    keys, srcs, lens, flat = (np.concatenate(col) for col in (keys, srcs, lens, flat))
    # every row is in one group and a walk emits a row's selections
    # together, in emission order, so one stable sort by key restores
    # inbox-row order within each rank's selections and expansions; the
    # selections are the pieces before ``selected``, in walk order
    perm = np.argsort(keys, kind="stable")
    del keys
    sel = perm[perm < selected]
    if walks:
        agg_col, leaves = KernelColumn.concat(aggs).take(sel), np.concatenate(nleaves)[sel]
    else:
        agg_col, leaves = expansions[0][0].aggs[:0], np.empty(0, dtype=_I64)
    del aggs, nleaves
    starts, lens = (np.cumsum(lens) - lens)[perm], lens[perm]
    pair_rows = np.repeat(srcs[perm], lens)
    return srcs[sel], leaves, agg_col, pair_rows, flat[slice_positions(starts, lens)], cost
