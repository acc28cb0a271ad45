"""Batched forest walks: Search step 5 over the stacks' arrays.

A rank's inbox reaches a few stacks — its own group's, one per
dimension and part, and the replicated copies it holds.  This module
supplies the dist-side consumer of
:class:`~repro.seq.compiled.CompiledForest`: one walk per dimension over
every stack of that dimension the subqueries aim at, one gather from a
stack's ``pids`` for the expansion requests aimed at it, packed straight
into the ``dist.forest_selection`` and ``dist.report_pair`` columns.

The contract is bit-identity with a per-subquery ``canonical`` loop
of the tests' object reference (``tests.helpers.RangeTree``) over each
element's points: same selections in the same order (inbox row order,
emission order within a row), same charged visit totals.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Any, Callable, Sequence, Tuple

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
    charge: Callable[[int], None],
) -> Tuple[np.ndarray, np.ndarray, Any, np.ndarray, np.ndarray]:
    """Search step 5 over one rank's inbox: one walk per dimension.

    ``walks`` holds, per dimension the inbox's subqueries reach, a
    ``(stack, rows)`` pair per stack of it they aim at (the rows
    ascending) — the rank's own group's of every part and every replica —
    and ``expansions`` one per stack expansion requests aim at; ``tree``
    (each row's tree index in its stack), the bound matrices
    ``los``/``his`` and ``report`` (does the row's query consume point
    ids) are per inbox row.  A dimension's subqueries are one
    :meth:`~repro.seq.compiled.CompiledForest.walk` over its stacks,
    charged ``max(1, visits)`` each; a stack's expansion requests are one
    gather from its ``pids``, charged a tree's width each.

    Returns ``(sel_rows, nleaves, agg_col, pair_rows, pair_pids)``.  The
    first three run over all selections in inbox-row order (emission
    order within a row): each selection's source inbox row, its leaf
    count and the ``agg`` column (under the stacks' kernel — a pass's
    parts share their annotation).  The last
    two are the reported points with their source rows (padding
    sentinels included): those under each reporting row's selections in
    selection order, then each expanded element's in request order.
    """
    n = len(tree)
    # the reported points as pieces (source row key, lengths, ids), and
    # the selections' leaf counts and aggregates
    keys, lens, flat, nleaves, aggs = [], [], [], [], []
    for groups in walks:
        stacks = [stack for stack, _rows in groups]
        rows = np.concatenate([group for _stack, group in groups])
        sizes = [len(group) for _stack, group in groups]
        which = np.repeat(np.arange(len(groups)), sizes)
        sel = CompiledForest.walk(stacks, los[rows], his[rows], tree[rows], which)
        charge(int(np.maximum(sel.visits, 1).sum()))
        src = rows[sel.q]
        length = np.where(report[src], sel.length, 0)
        # selections come grouped by stack, a stack's ending where its
        # boxes do: gather each stack's slice from its own arrays
        cut = sel.q.searchsorted(list(accumulate(sizes))).tolist()
        for stack, a, b in zip(stacks, [0] + cut, cut):
            aggs.append(stack.aggs.take(sel.node[a:b]))
            flat.append(stack.pids[stack.rows_flat(sel.off[a:b], length[a:b])])
        keys.append(src)
        lens.append(length)
        nleaves.append(sel.length)
    for stack, rows in expansions:
        # rows ascend in the element's own dimension: the order the
        # hat-side expansion has always emitted
        length = np.full(len(rows), stack.width, dtype=_I64)
        charge(int(length.sum()))
        # keyed past every selection: expansions come last
        keys.append(rows + n)
        lens.append(length)
        flat.append(stack.pids[slice_positions(tree[rows] * stack.width, length)])

    keys, lens, flat = (np.concatenate(col) for col in (keys, lens, flat))
    # every row is in one group and a walk emits a row's selections
    # together, in emission order, so one stable sort by source row
    # restores inbox-row order; the selections, keyed below n, come first
    # and in the order the walks emitted them
    perm = np.argsort(keys, kind="stable")
    sel = perm[: sum(len(x) for x in nleaves)]
    if walks:
        agg_col, leaves = KernelColumn.concat(aggs).take(sel), np.concatenate(nleaves)[sel]
    else:
        agg_col, leaves = expansions[0][0].aggs[:0], np.empty(0, dtype=_I64)
    starts, lens = (np.cumsum(lens) - lens)[perm], lens[perm]
    pair_rows = np.repeat(keys[perm] % n, lens)
    return keys[sel], leaves, agg_col, pair_rows, flat[slice_positions(starts, lens)]
