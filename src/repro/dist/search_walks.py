"""Algorithm Search's two local steps, the hat walk and the forest walk,
as host phases (:func:`~repro.cgm.phases.register_host_phase`).

A host runs each step once for all the ranks it holds — the serial
backend is one host of all ``p`` ranks, each process worker the host of
a rank block — and cuts the output back per rank: every rank's batches, charge, h
and bytes are what it would emit alone.  :func:`repro.dist.search.run_search`
dispatches both by name (``dist.search.walk_cols``,
``dist.search.forest_cols``); see :mod:`repro.dist.search` for the five
steps they sit between.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..cgm.columns import RecordBatch
from ..cgm.phases import ProcContext, register_host_phase
from ..errors import ProtocolError
from .construct import forest_key, hat_key, holders_key
from .forest_compiled import stack_selections
from .hat import walk_hats
from .records import KIND_SUBQUERY

__all__: List[str] = []


def _slot_of(qid: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Each row's slot — its rank's place in a host's block — from its
    query id (``ends``: the ranks' slices' exclusive query-id ends)."""
    return np.searchsorted(ends, qid, side="right")


def _per_slice(values: np.ndarray, sizes: Sequence[int]) -> List[int]:
    """``values`` summed over consecutive slices of the given sizes."""
    total = np.concatenate(([0], np.cumsum(values)))
    stops = np.cumsum(sizes)
    return (total[stops] - total[stops - sizes]).tolist()


def _cut(batch: RecordBatch, slot: np.ndarray, slots: int) -> List[RecordBatch]:
    """A batch whose rows come slot by slot (``slot``: each row's), cut
    into one view per slot."""
    if slots == 1:
        return [batch]
    stops = np.cumsum(np.bincount(slot, minlength=slots)).tolist()
    return [batch.islice(a, b) for a, b in zip([0] + stops, stops)]


def _skip_idle(ctxs, payloads, rows: int, idle, body) -> list:
    """A host phase's results: ``body`` over the block's ranks whose
    payload's entry ``rows`` is not empty, ``idle`` (a zero-row result,
    made once) for every other rank."""
    out = [idle] * len(ctxs)
    busy = [i for i, payload in enumerate(payloads) if len(payload[rows])]
    if busy:
        results = body([ctxs[i] for i in busy], [payloads[i] for i in busy])
        for i, result in zip(busy, results):
            out[i] = result
    return out


@register_host_phase("dist.search.walk_cols")
def _phase_walk_cols(ctxs: Sequence[ProcContext], payloads) -> list:
    """Step 1: one hat walk over a host's query slices and every part.

    A rank's payload is ``(qlo, nss, bounds, report)``: its slice starts
    at query ``qlo``, ``nss`` names the parts and ``bounds`` holds the
    slice's rank bounds in each part's rank space.  The block's slices
    are consecutive (rank ``r`` holds queries ``r·ceil(m/p)`` onward), so
    laid end to end they are one slice, and one
    :func:`~repro.dist.hat.walk_hats` call over them reads the block's
    first hat replica — every rank's is the same (Definition 3;
    :func:`~repro.dist.validate.validate_tree` checks it).  The walk's
    output comes slice by slice and is cut back per rank: the
    ``dist.hat_selection`` batch and the two routing batches the step-4
    exchange ships, naming nodes and elements ``part·H + row``, each
    rank charged the Theorem 3 total of its own queries.  Each rank's
    share of step 2's demand count (subqueries per owner) rides along:
    nothing is exchanged between the walk and the count.  Also resets
    every rank's pass-local replica caches — stale copies from a
    previous batch must never serve this one.
    """
    nss, p = payloads[0][1], ctxs[0].p
    for ctx in ctxs:
        for ns in nss:
            ctx.state[holders_key(ns)] = {}
    hats = [ctxs[0].state[hat_key(ns)] for ns in nss]
    # a rank with no queries: the walk's zero-row output, made once
    sels, subqueries, expansions, _visits = hats[0].idle
    idle = (sels, subqueries, expansions, np.zeros(p, dtype=np.int64))
    return _skip_idle(ctxs, payloads, 3, idle, lambda busy, slices: _walk(hats, busy, slices))


def _walk(hats, ctxs: Sequence[ProcContext], payloads) -> list:
    """Step 1 over the block's ranks that hold queries."""
    nss, p, slots = payloads[0][1], ctxs[0].p, len(ctxs)
    sizes = [len(report) for _qlo, _nss, _bounds, report in payloads]
    qlo = payloads[0][0]
    starts = qlo + np.cumsum(sizes) - sizes
    if any(pl[0] != a for pl, a in zip(payloads, starts.tolist())):
        raise ProtocolError(
            f"a host's query slices must be consecutive, got starts {[pl[0] for pl in payloads]}"
        )

    def laid(cols: list) -> np.ndarray:  # the slices end to end
        return cols[0] if len(cols) == 1 else np.concatenate(cols)

    bounds = [
        tuple(map(laid, zip(*(pl[2][b] for pl in payloads)))) for b in range(len(nss))
    ]
    report = laid([pl[3] for pl in payloads])
    sels, subqueries, expansions, visits = walk_hats(hats, qlo, bounds, report, sizes)
    ends = starts + sizes
    # Theorem 3's charge: each rank's queries' visits over every part
    for ctx, visited in zip(ctxs, _per_slice(visits.reshape(len(nss), -1).sum(axis=0), sizes)):
        ctx.charge(visited)
    sub_slot = _slot_of(subqueries.col("qid"), ends)
    demand = np.bincount(sub_slot * p + subqueries.col("location"), minlength=slots * p)
    return list(
        zip(
            _cut(sels, _slot_of(sels.col("qid"), ends), slots),
            _cut(subqueries, sub_slot, slots),
            _cut(expansions, _slot_of(expansions.col("qid"), ends), slots),
            demand.reshape(slots, p),
        )
    )


_NO_ROWS = np.empty(0, dtype=np.int64)


def _forest_output(
    qid, element, nleaves, agg, pair_qid=_NO_ROWS, pair_pid=_NO_ROWS,
    sel_slot=_NO_ROWS, pair_slot=_NO_ROWS, slots: int = 1,
) -> list:
    """Step 5's result per rank of a host's block: the selection batch and
    the report pairs — real points only; power-of-two padding sentinels
    are dropped here.  Both come rank by rank (``sel_slot``/``pair_slot``
    each row's place in the block) and are cut into one view per rank."""
    sels = RecordBatch(
        "dist.forest_selection",
        {"qid": qid, "element": element, "nleaves": nleaves, "agg": agg},
        len(qid),
    )
    real = pair_pid >= 0
    pairs = RecordBatch("dist.report_pair", {"qid": pair_qid[real], "pid": pair_pid[real]})
    return list(zip(_cut(sels, sel_slot, slots), _cut(pairs, pair_slot[real], slots)))


@register_host_phase("dist.search.forest_cols")
def _phase_forest_cols(ctxs: Sequence[ProcContext], payloads) -> list:
    """Step 5: one walk per dimension over every distinct stack the host's
    ranks hold.

    A rank's payload is ``(inbox, nss, report)``: its inbox is one routing
    batch (subqueries and expansion requests mixed, source-ordered),
    ``nss`` names the parts in the pass's order and ``report`` is the
    pass's bool mask over query ids.  The block's inboxes are laid end to
    end; each row's element ``part·H + leaf`` gives its part by one
    ``divmod`` and its dimension and tree index off the shared shape; one
    stable argsort groups the rows by ``(kind, dimension, part, owner)``,
    the last two naming the stack that serves them (a rank's own group's
    or a copy it holds: one walk per distinct stack the host holds, each
    rank's output and charge as if alone; each row's rank must hold the
    stack itself).  :func:`~repro.dist.forest_compiled.stack_selections`
    then walks each dimension's stacks in one call — at most ``d`` walks
    per host, however many ranks, parts and copies — and its output is cut
    back per rank, each rank's in its inbox-row order: the
    ``dist.forest_selection`` batch and, for the queries ``report`` marks,
    the ``dist.report_pair`` batch of the points under each reporting
    selection, in selection order, then those of the expansion requests.
    Each rank is charged what a per-subquery object-tree ``canonical``
    loop over its inbox charges (``max(1, visits)`` per subquery,
    ``nleaves`` per expand).
    """
    nss = payloads[0][1]
    hat = ctxs[0].state[hat_key(nss[0])]
    # a rank with an empty inbox: the hat's own zero-row aggregates
    (idle,) = _forest_output(_NO_ROWS, _NO_ROWS, _NO_ROWS, hat.idle[0].cols["agg"])
    return _skip_idle(
        ctxs, payloads, 0, idle, lambda busy, inboxes: _forest(hat.shape, busy, inboxes)
    )


def _forest(shape, ctxs: Sequence[ProcContext], payloads) -> list:
    """Step 5 over the block's ranks whose inboxes hold rows."""
    nss, report = payloads[0][1], payloads[0][2]
    slots, p = len(ctxs), ctxs[0].p
    sizes = [len(inbox) for inbox, _nss, _report in payloads]
    ends = np.cumsum(sizes)
    # per rank of the block and part: owner -> {dimension: stack}, the
    # rank's own group included
    held = [
        [
            {**(ctx.state.get(holders_key(ns)) or {}),
             ctx.rank: ctx.state.get(forest_key(ns)) or {}}
            for ns in nss
        ]
        for ctx in ctxs
    ]
    inbox = RecordBatch.concat([pl[0] for pl in payloads])
    slot = np.repeat(np.arange(slots), sizes)
    eid, owner, kind = inbox.col("element"), inbox.col("location"), inbox.col("kind")
    part, leaf = np.divmod(eid, shape.size)
    dim, tree = shape.dim[leaf], shape.tree[leaf]
    # (kind, dimension) picks the walk or the gather, (part, owner) the
    # stack: every copy of it on the host is the same, so the rows all the
    # block's ranks aim at it are one group
    key = ((kind * shape.d + dim) * len(nss) + part) * p + owner
    rows = np.argsort(key, kind="stable")
    sorted_key, sorted_slot = key[rows], slot[rows]
    # a group opens where the key changes, and a run of one rank's rows
    # where the key or the rank does: a group's rows ascend, so its ranks'
    # runs do, and each run's rank must hold the stack itself
    opens = np.empty(len(rows), dtype=bool)
    opens[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=opens[1:])
    groups = iter(np.split(rows, np.flatnonzero(opens)[1:]))
    run = opens.copy()
    run[1:] |= sorted_slot[1:] != sorted_slot[:-1]
    runs = np.flatnonzero(run)
    walks, expansions = {}, []
    for i, s, opens_group in zip(
        rows[runs].tolist(), sorted_slot[runs].tolist(), opens[runs].tolist()
    ):
        b, o, j = int(part[i]), int(owner[i]), int(dim[i])
        stack = held[s][b].get(o, {}).get(j)
        if stack is None:
            raise ProtocolError(
                f"rank {ctxs[s].rank} received subquery for "
                f"{ctxs[s].state[hat_key(nss[b])].path(int(leaf[i]))} "
                f"without holding a copy of group {o}"
            )
        if not opens_group:
            continue
        if kind[i] == KIND_SUBQUERY:
            walks.setdefault(j, []).append((stack, next(groups)))
        else:
            expansions.append((stack, next(groups)))
    del key, rows, sorted_key, sorted_slot

    qid_col = inbox.col("qid")
    sel_rows, nleaves, agg_col, pair_rows, pair_pids, cost = stack_selections(
        list(walks.values()), expansions, tree, inbox.col("los"), inbox.col("his"),
        report[qid_col], ends,
    )
    for ctx, charged in zip(ctxs, _per_slice(cost, sizes)):
        ctx.charge(charged)
    return _forest_output(
        qid_col[sel_rows], eid[sel_rows], nleaves, agg_col, qid_col[pair_rows], pair_pids,
        sel_slot=slot[sel_rows], pair_slot=slot[pair_rows], slots=slots,
    )
