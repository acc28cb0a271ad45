"""Batched forest walks: Search step 5 over the elements' arrays.

:class:`~repro.seq.compiled.CompiledForest` (re-exported here) is the
struct-of-arrays range tree every forest element holds; this module
supplies the dist-side consumer — the routed subqueries of one rank,
grouped by target element, walked as level-by-level frontier expansion
and packed straight into the ``dist.forest_selection`` columns.

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

from ..cgm.columns import Ragged
from ..semigroup.kernels import KernelColumn
from ..seq.compiled import CompiledForest

__all__ = ["CompiledForest", "batched_forest_selections"]

_I64 = np.int64


def batched_forest_selections(
    groups: Sequence[Tuple[Any, np.ndarray]],
    los_m: np.ndarray,
    his_m: np.ndarray,
    want_mask: np.ndarray,
    charge: Callable[[int], None],
) -> Tuple[np.ndarray, np.ndarray, Any, Ragged]:
    """Walk each element's routed subqueries in one compiled batch.

    ``groups`` pairs each target :class:`~repro.dist.forest.ForestElement`
    with the inbox row indices (ascending) of the subqueries routed to
    it; ``los_m``/``his_m`` are the inbox bound matrices and
    ``want_mask`` flags the rows whose queries consume point ids.
    ``charge`` receives each group's visit total — ``max(1, visits)``
    per subquery, exactly what a per-subquery ``canonical`` loop charges.

    Returns ``(sel_rows, nleaves, agg_col, pid_ragged)`` over all
    selections in inbox-row order (emission order within a row):
    the source inbox row of each selection — ``qid``/``forest_id``
    columns are gathers of the inbox columns by it — plus the selection
    leaf counts, the ``agg`` column (typed when every emitting element
    is annotated under one kernel, decoded objects otherwise), and the
    per-selection pid rows (empty rows for fold-family queries).
    """
    emitted: List[Tuple[CompiledForest, Any, np.ndarray, np.ndarray]] = []
    per_rows: List[np.ndarray] = []

    for el, rows in groups:
        comp: CompiledForest = el.soa
        sel_q, sel_n, visits = comp.walk(los_m[rows], his_m[rows])
        charge(int(np.maximum(visits, 1).sum()))
        if len(sel_n):
            emitted.append((comp, el, sel_n, rows[sel_q]))
            per_rows.append(rows[sel_q])

    nsel = sum(len(r) for r in per_rows)
    if not nsel:
        empty = np.empty(0, dtype=_I64)
        return (
            empty,
            empty,
            np.empty(0, dtype=object),
            Ragged(empty, np.zeros(1, dtype=_I64)),
        )

    all_rows = np.concatenate(per_rows)
    # groups carve the inbox into disjoint row sets and each group's
    # selections are already (row, emission)-ordered, so one stable sort
    # by source row restores inbox-row output order
    perm = np.argsort(all_rows, kind="stable")
    sel_rows = all_rows[perm]
    nleaves = np.concatenate(
        [comp.nleaves[sel_n] for comp, _el, sel_n, _r in emitted]
    )[perm]

    # typed agg column iff every emitting element kernelized under equal
    # kernels; ``k0`` keys off the first selection in final order
    uniform = all(comp.agg_mat is not None for comp, _e, _n, _r in emitted)
    if uniform:
        first = min(
            emitted, key=lambda e: int(e[3][0])
        )  # group owning the earliest inbox row
        k0 = first[0].agg_kernel
        uniform = all(
            comp.agg_kernel is k0 or comp.agg_kernel == k0
            for comp, _e, _n, _r in emitted
        )
    if uniform:
        agg_col: Any = KernelColumn(
            k0,
            np.concatenate(
                [comp.agg_mat[sel_n] for comp, _e, sel_n, _r in emitted]
            )[perm],
        )
    else:
        agg_col = np.empty(nsel, dtype=object)
        pos = 0
        for comp, _el, sel_n, _rows in emitted:
            agg_col[pos : pos + len(sel_n)] = comp.decode_aggs(sel_n)
            pos += len(sel_n)
        agg_col = agg_col[perm]

    # pid rows: nleaves-long tilings of each element's rows, mapped to
    # point ids, for report-family rows; zero-length rows otherwise
    per_lens = [
        np.where(want_mask[rows_s], comp.nleaves[sel_n], 0)
        for comp, _el, sel_n, rows_s in emitted
    ]
    lens_cat = np.concatenate(per_lens)
    offsets = np.zeros(nsel + 1, dtype=_I64)
    np.cumsum(lens_cat, out=offsets[1:])
    flat = np.concatenate(
        [
            el.pids[comp.rows_flat(sel_n, lens)]
            for (comp, el, sel_n, _r), lens in zip(emitted, per_lens)
        ]
    )
    pid_ragged = Ragged(flat, offsets).take(perm)
    return sel_rows, nleaves, agg_col, pid_ragged
