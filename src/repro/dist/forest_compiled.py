"""Batched forest walks: Search step 5 over the elements' arrays.

:class:`~repro.seq.compiled.CompiledForest` (re-exported here) is the
struct-of-arrays range tree every forest element holds; this module
supplies the dist-side consumer — the routed subqueries of one rank,
grouped by target element, located in its key blocks by arithmetic and
packed straight into the ``dist.forest_selection`` columns.

The contract is bit-identity with a per-subquery
:meth:`~repro.seq.range_tree.RangeTree.canonical` loop over the same
points: same selections in the same order (inbox row order, emission
order within a row), same charged visit totals, and a typed ``agg``
column exactly when every emitting element is annotated under one
kernel.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

import numpy as np

from .._util import slice_positions
from ..semigroup.kernels import KernelColumn
from ..seq.compiled import CompiledForest, Selections

__all__ = ["CompiledForest", "batched_forest_selections"]

_I64 = np.int64


def batched_forest_selections(
    groups: Sequence[Tuple[Any, np.ndarray]],
    los_m: np.ndarray,
    his_m: np.ndarray,
    report: np.ndarray,
    charge: Callable[[int], None],
) -> Tuple[np.ndarray, np.ndarray, Any, np.ndarray, np.ndarray]:
    """Walk each element's routed subqueries in one compiled batch.

    ``groups`` pairs each target :class:`~repro.dist.forest.ForestElement`
    with the inbox row indices (ascending) of the subqueries routed to
    it; ``los_m``/``his_m`` are the inbox bound matrices and
    ``report`` flags the rows whose queries consume point ids.
    ``charge`` receives each group's visit total — ``max(1, visits)``
    per subquery, exactly what a per-subquery ``canonical`` loop charges.

    Returns ``(sel_rows, nleaves, agg_col, pair_rows, pair_pids)``.  The
    first three run over all selections in inbox-row order (emission
    order within a row): the source inbox row of each selection —
    ``qid``/``element`` columns are gathers of the inbox columns by
    it — the selection leaf counts and the ``agg`` column (typed when
    every emitting element is annotated under one kernel, decoded
    objects otherwise).  The last two are the points under every
    selection of a ``report`` row, in the same order: each point's
    source inbox row and its id (padding sentinels included).
    """
    # per emitting element: (element, its selections, their inbox rows)
    emitted: List[Tuple[Any, Selections, np.ndarray]] = []

    for el, rows in groups:
        sel = el.soa.walk(los_m[rows], his_m[rows])
        charge(int(np.maximum(sel.visits, 1).sum()))
        if len(sel.node):
            emitted.append((el, sel, rows[sel.q]))

    nsel = sum(len(rows_s) for _el, _sel, rows_s in emitted)
    if not nsel:
        empty = np.empty(0, dtype=_I64)
        return empty, empty, np.empty(0, dtype=object), empty, empty

    all_rows = np.concatenate([rows_s for _el, _sel, rows_s in emitted])
    # groups carve the inbox into disjoint row sets and each group's
    # selections are already (row, emission)-ordered, so one stable sort
    # by source row restores inbox-row output order
    perm = np.argsort(all_rows, kind="stable")
    sel_rows = all_rows[perm]
    nleaves = np.concatenate([sel.length for _el, sel, _r in emitted])[perm]

    # typed agg column iff every emitting element kernelized under equal
    # kernels; ``k0`` keys off the first selection in final order
    uniform = all(el.soa.agg_mat is not None for el, _sel, _r in emitted)
    if uniform:
        first = min(
            emitted, key=lambda e: int(e[2][0])
        )  # group owning the earliest inbox row
        k0 = first[0].soa.agg_kernel
        uniform = all(
            el.soa.agg_kernel is k0 or el.soa.agg_kernel == k0
            for el, _sel, _r in emitted
        )
    if uniform:
        agg_col: Any = KernelColumn(
            k0,
            np.concatenate(
                [el.soa.agg_mat.take(sel.node, axis=0) for el, sel, _r in emitted]
            )[perm],
        )
    else:
        agg_col = np.empty(nsel, dtype=object)
        pos = 0
        for el, sel, _rows in emitted:
            agg_col[pos : pos + len(sel.node)] = el.soa.decode_aggs(sel.node)
            pos += len(sel.node)
        agg_col = agg_col[perm]

    # the points under each report row's selections, walked in output
    # order: selection ``perm[k]``'s slice of the emission-ordered ``flat``
    per_lens = [
        np.where(report[rows_s], sel.length, 0) for _el, sel, rows_s in emitted
    ]
    flat = np.concatenate(
        [
            el.pids[el.soa.rows_flat(sel.off, lens)]
            for (el, sel, _r), lens in zip(emitted, per_lens)
        ]
    )
    lens_cat = np.concatenate(per_lens)
    starts, lens = (np.cumsum(lens_cat) - lens_cat)[perm], lens_cat[perm]
    pids = flat[slice_positions(starts, lens)]
    return sel_rows, nleaves, agg_col, np.repeat(sel_rows, lens), pids
