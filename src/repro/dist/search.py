"""Algorithm Search: batched queries in O(1) rounds (§5, Theorems 3-5).

A batch of ``m = O(n)`` rank-space queries is answered in a constant
number of h-relations:

1. **Hat walk** (local): each processor walks its resident hat replica
   for its block of queries (:meth:`repro.dist.hat.Hat.walk_batch`;
   :meth:`repro.dist.hat.Hat.walk` is the per-query reference), producing
   dimension-``d`` hat selections and the surviving subquery set ``Q'``
   aimed at forest elements.
2. **Demand count** (1 round): one all-gather sums, per owner ``j``, the
   number of subqueries wanting its forest group; the copy counts
   ``c_j = ceil(|Q'_{F_j}| / ceil(|Q'|/p))`` follow locally
   (:func:`repro.cgm.loadbalance.compute_copy_counts`).
3. **Replication**: oversubscribed groups are copied to other
   processors.  ``direct`` ships every copy from the owner in one round
   (h spikes to ``c_j·|F_j|``); ``doubling`` recruits one new holder per
   existing holder per round — ``log2 p`` rounds, always run in full so
   the round count is a function of ``(p, strategy)`` alone, never of
   the data (the Corollary tests measure exactly this).  The *schedule*
   is computed in the driver (it is data-independent —
   :func:`repro.cgm.loadbalance.replication_schedule`); the element
   stores move between ranks through pack/unpack phases — dispatched
   only for a round that moves a store; an empty round is recorded and
   nothing more — and land in the receiving rank's replica cache.  Like
   every exchange, the transfer is routed via the driver's
   deterministic merge — on the process backend that means one pickle
   up and one down per round, the heaviest payload in the pipeline
   (in-process backends pass references).
4. **Subquery routing** (1 round): owner ``j``'s subqueries are split
   into ``c_j`` chunks of at most ``ceil(|Q'|/p)`` and routed to the
   copy holders, so no processor serves more than ``O(|Q'|/p)``.
5. **Forest walk** (local): each holder resumes the canonical walk
   inside its (copies of) forest elements, emitting a
   ``dist.forest_selection`` batch (rows unpack to
   :class:`~repro.dist.records.ForestSelection`) and, for the queries
   the pass's ``report`` mask marks, the ``(qid, pid)`` pairs of a
   ``dist.report_pair`` batch.

A query folds or it reports (Theorems 4-5): one bool mask over the batch
says which, from the hat walk's tilings to step 5's pairs, and
:mod:`repro.dist.modes` then folds the selections per query.

SPMD residency: steps 1, 3 and 5 are registered phases
(``dist.search.*``) reading the rank-resident ``{ns}:forest`` /
``{ns}:hat`` state that Algorithm Construct left behind; only query
boxes, selection/routing batches and replicated element stores cross
the boundary.  Callers without a resident structure (hand-built stores
in tests) omit ``ns`` and the stores are seeded first — by reference on
in-process backends, by pickle on the process backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

import numpy as np

from .._util import ilog2
from ..cgm.collectives import allgather, route_batches
from ..cgm.columns import Ragged, RecordBatch
from ..cgm.loadbalance import (
    assign_copies_round_robin,
    compute_copy_counts,
    replication_schedule,
)
from ..cgm.machine import Machine
from ..cgm.phases import ProcContext, register_phase
from ..errors import ProtocolError
from ..geometry.box import RankBoxes, rank_bounds
from .construct import forest_key, hat_key
from .forest_compiled import batched_forest_selections
from .hat import Hat
from .records import RoutingCodec, unflatten_path

__all__ = ["SearchOutput", "run_search"]


def _holders_key(ns: str) -> str:
    return f"{ns}:holders"


@dataclass
class SearchOutput:
    """Everything Algorithm Search leaves distributed over the machine.

    ``hat_selections[r]``/``forest_selections[r]`` are the selections
    produced at rank ``r``, always as a
    :class:`~repro.cgm.columns.RecordBatch` (``dist.hat_selection_cols``
    / ``dist.forest_selection``) whose rows lazily unpack to the records
    the reference walks (:meth:`Hat.walk`,
    :meth:`RangeTree.canonical <repro.seq.range_tree.RangeTree.canonical>`)
    emit; ``owner_stores`` exposes the
    per-owner forest stores.  The load-balancing observables of steps 2-4
    (``demands`` per owner, ``copy_counts``, per-processor subquery
    counts) are what the M1/S1 experiments and the Theorem 3 tests
    measure.
    """

    hat_selections: List[RecordBatch]
    forest_selections: List[RecordBatch]
    owner_stores: Sequence[dict]
    demands: List[int] = field(default_factory=list)
    copy_counts: List[int] = field(default_factory=list)
    subqueries_per_proc: List[int] = field(default_factory=list)
    total_subqueries: int = 0
    #: The points of the queries the pass's ``report`` mask marks, one
    #: ``dist.report_pair`` batch of ``(qid, pid)`` per rank: the points
    #: under its forest selections, then those of the hat selections
    #: expanded at the elements' owners.
    report_pairs: List[RecordBatch] = field(default_factory=list)


# ---------------------------------------------------------------------------
# routed subquery/expansion/selection traffic as batches
# ---------------------------------------------------------------------------
def _expand_routing_cols(selections: RecordBatch, d: int) -> "RecordBatch | None":
    """Expansion requests for a packed selection batch (Search step 4).

    One :class:`~repro.dist.records.ExpandRequest` row per
    ``(forest_id, location)`` tiling entry of every selection, in batch
    row order — the walk tiles only reporting queries' selections, so
    the others emit nothing.  The forest ids come from the same heap
    arithmetic the selection codec unpacks with, so no record objects
    are built.
    """
    locs: Ragged = selections.col("locations")
    if not len(locs.flat):
        return None
    qid_col = selections.col("qid")
    paths: Ragged = selections.col("path")
    out_qid: List[int] = []
    out_loc: List[int] = []
    fid_rows: List[List[int]] = []
    for i in np.nonzero(locs.lengths)[0]:
        lrow = locs.row(i)
        w = len(lrow)
        prow = paths.row(i)
        h = w.bit_length() - 1
        base = int(prow[0]) << h
        lvl = int(prow[1]) - h
        tid = [int(x) for x in prow[2:]]
        q = int(qid_col[i])
        for k in range(w):
            out_qid.append(q)
            fid_rows.append([base + k, lvl] + tid)
            out_loc.append(int(lrow[k]))
    n = len(out_qid)
    return RecordBatch(
        "dist.search.routing",
        {
            "kind": np.full(n, RoutingCodec.KIND_EXPAND, dtype=np.int64),
            "qid": np.asarray(out_qid, dtype=np.int64),
            "los": np.zeros((n, d), dtype=np.int64),
            "his": np.zeros((n, d), dtype=np.int64),
            "forest_id": Ragged.from_rows(fid_rows),
            "location": np.asarray(out_loc, dtype=np.int64),
        },
        n,
    )


@register_phase("dist.search.walk_cols")
def _phase_walk_cols(ctx: ProcContext, payload) -> tuple:
    """Step 1: the hat walk over this rank's whole query slice.

    One :meth:`~repro.dist.hat.Hat.walk_batch` call classifies
    every live ``(query, node)`` frontier pair with array comparisons
    and returns both outputs column-packed — selections as a
    ``dist.hat_selection_cols`` batch (lazy-unpacking to the records
    :meth:`Hat.walk` emits, in the same order), subqueries as the routing
    batch the step-4 exchange ships, plus this rank's share of step 2's
    demand count (subqueries per owner — nothing is exchanged between the
    walk and the count, so they are one phase).  The per-query visit
    counts charge the same Theorem 3 total as per-query :meth:`Hat.walk`
    calls.

    Also resets the pass-local replica cache — stale copies from a
    previous batch must never serve this one.
    """
    qlo, los, his, report, ns = payload
    hat: Hat = ctx.state[hat_key(ns)]
    ctx.state[_holders_key(ns)] = {}
    sels, routing, visits = hat.walk_batch(qlo, los, his, report)
    if len(visits):
        ctx.charge(int(visits.sum()))
    demand = np.bincount(np.asarray(routing.col("location")), minlength=ctx.p)
    return sels, routing, demand


def _forest_output(qid, forest_id, nleaves, agg, pair_qid, pair_pid) -> tuple:
    """Step 5's result: the selection batch and the report pairs — real
    points only; power-of-two padding sentinels are dropped here."""
    real = pair_pid >= 0
    return (
        RecordBatch(
            "dist.forest_selection",
            {"qid": qid, "forest_id": forest_id, "nleaves": nleaves, "agg": agg},
            len(qid),
        ),
        RecordBatch("dist.report_pair", {"qid": pair_qid[real], "pid": pair_pid[real]}),
    )


_NO_ROWS = np.empty(0, dtype=np.int64)
_NO_PATHS = Ragged.concat([])
#: What a rank with an empty inbox returns from step 5 (an object ``agg``
#: column, as for any inbox whose walks select nothing).
_NO_FOREST_ROWS = _forest_output(
    _NO_ROWS, _NO_PATHS, _NO_ROWS, np.empty(0, dtype=object), _NO_ROWS, _NO_ROWS
)


@register_phase("dist.search.forest_cols")
def _phase_forest_cols(ctx: ProcContext, payload) -> tuple:
    """Step 5: batched walks over resident forest elements.

    The inbox is one routing batch (subqueries and expansion requests
    mixed, source-ordered).  Subqueries group by target element and each
    group runs one :meth:`~repro.seq.compiled.CompiledForest.walk` —
    one ``searchsorted`` and one closed-form cover per dimension of the
    element's key blocks — then :func:`~repro.dist.forest_compiled.batched_forest_selections`
    packs every group's selections straight into the
    ``dist.forest_selection`` columns, restored to inbox-row order.
    ``report`` (the pass's bool mask over query ids) limits pid
    materialization to the queries whose output mode consumes point
    ids, saving the per-leaf gather for every count/aggregate subquery:
    the ``dist.report_pair`` batch holds the points under each reporting
    selection, in selection order, then those of the expansion requests.
    Charged visit totals match a per-subquery object-tree ``canonical``
    loop exactly (``max(1, visits)`` per subquery, ``nleaves`` per
    expand).
    """
    inbox, ns, report = payload
    if not len(inbox):
        return _NO_FOREST_ROWS
    r = ctx.rank
    forest = ctx.state.get(forest_key(ns)) or {}
    holders = ctx.state.get(_holders_key(ns)) or {}

    kind = inbox.col("kind")
    qid_col = np.asarray(inbox.col("qid"))
    los_m = np.asarray(inbox.col("los"))
    his_m = np.asarray(inbox.col("his"))
    fid_col = inbox.col("forest_id")
    loc_col = inbox.col("location")

    # One pass over the inbox: expansions run in place (row order), and
    # subquery rows bucket by target element — store resolution happens
    # at each element's first row, so a missing copy raises at the first
    # row that needs it.
    exp_qids: List[np.ndarray] = []
    exp_pids: List[np.ndarray] = []
    group_rows: dict = {}
    group_order: List[Tuple[Any, List[int]]] = []
    for i in range(len(inbox)):
        fid_flat = fid_col.row(i)
        if int(kind[i]) == RoutingCodec.KIND_EXPAND:
            # Owners always keep their own store; expand in place.
            el = forest[unflatten_path(fid_flat)]
            # rows ascend in the element's own dimension: the order
            # the hat-side expansion has always emitted
            exp_qids.append(np.full(len(el.pids), qid_col[i]))
            exp_pids.append(el.pids)
            ctx.charge(el.nleaves)
            continue
        location = int(loc_col[i])
        key = (location, fid_flat.tobytes())
        rows = group_rows.get(key)
        if rows is None:
            store = forest if location == r else holders.get(location)
            fid = unflatten_path(fid_flat)
            if store is None or fid not in store:
                raise ProtocolError(
                    f"rank {r} received subquery for {fid} "
                    f"without holding a copy of group {location}"
                )
            group_rows[key] = rows = []
            group_order.append((store[fid], rows))
        rows.append(i)

    sel_rows, nleaves, agg_col, pair_rows, pair_pids = batched_forest_selections(
        [(el, np.asarray(rows, dtype=np.int64)) for el, rows in group_order],
        los_m,
        his_m,
        report[qid_col],
        ctx.charge,
    )
    return _forest_output(
        qid_col[sel_rows],
        fid_col.take(sel_rows),
        nleaves,
        agg_col,
        np.concatenate([qid_col[pair_rows], *exp_qids]),
        np.concatenate([pair_pids, *exp_pids]),
    )


@register_phase("dist.search.replicate_pack")
def _phase_replicate_pack(ctx: ProcContext, payload) -> list:
    """Step 3a: emit this rank's scheduled copy transfers as an outbox row."""
    instructions, ns = payload
    forest = ctx.state.get(forest_key(ns)) or {}
    holders = ctx.state.setdefault(_holders_key(ns), {})
    out: list[list] = [[] for _ in range(ctx.p)]
    for owner, dest in instructions:
        store = forest if owner == ctx.rank else holders.get(owner)
        if store is None:
            raise ProtocolError(
                f"rank {ctx.rank} was scheduled to forward group {owner} "
                "without holding a copy"
            )
        out[dest].append((owner, store))
    return out


@register_phase("dist.search.replicate_unpack")
def _phase_replicate_unpack(ctx: ProcContext, payload) -> None:
    """Step 3b: file the received copies in the rank's replica cache."""
    inbox, ns = payload
    holders = ctx.state.setdefault(_holders_key(ns), {})
    for owner, store in inbox:
        holders[owner] = store
    return None


def run_search(
    mach: Machine,
    ns: str,
    forest_store: Sequence[dict],
    rank_boxes: RankBoxes,
    report: "np.ndarray | bool | None" = None,
    replication: str = "doubling",
) -> SearchOutput:
    """Execute Algorithm Search for a batch of rank-space queries.

    ``ns`` names the machine state namespace where Construct left the
    structure resident (:attr:`ConstructResult.ns`; a tree's
    ``_ensure_resident()``); ``forest_store`` is the driver's view of
    the owners' elements, handed on in the output.

    ``rank_boxes`` is the int64 ``(m, d)`` pair ``(los, his)`` of
    :meth:`~repro.geometry.rankspace.RankSpace.to_rank_bounds` — the
    form the batch keeps down to the hat walk, sliced per rank as views
    — or a :class:`RankBox` sequence, stacked once on entry.

    ``report`` is a bool ``(m,)`` mask (or one bool for the whole batch;
    ``None``: no query reports) — a query folds its selections or it
    reports its points.  A marked query's hat selections carry their
    leaf tilings and are expanded into ``(qid, pid)`` pairs *inside* the
    pass: the expansion requests ride the step-4 routing round to the
    elements' owners and the owners expand them during the step-5 walk,
    which also emits the points under the query's forest selections, so
    report output costs no communication round beyond the pass itself
    (``SearchOutput.report_pairs`` holds the pairs per rank).  Unmarked
    queries skip the tilings and the leaf gather.
    """
    p = mach.p
    los, his = rank_bounds(rank_boxes)
    m, d = los.shape
    report = np.broadcast_to(np.asarray(report, dtype=bool), (m,))
    chunk = -(-m // p) if m else 1

    # -- step 1: hat walk over each processor's query block ----------------
    walked = mach.run_phase(
        "search:walk",
        "dist.search.walk_cols",
        [
            (
                r * chunk,
                los[r * chunk : (r + 1) * chunk],
                his[r * chunk : (r + 1) * chunk],
                report[r * chunk : (r + 1) * chunk],
                ns,
            )
            for r in range(p)
        ],
    )
    hat_selections = [w[0] for w in walked]
    local_subqs = [w[1] for w in walked]

    # -- step 2: demand per forest group (one all-gather) ------------------
    demand_matrix = np.stack(
        allgather(mach, [w[2] for w in walked], label="search:demands")[0]
    )
    per_owner = demand_matrix.sum(axis=0)
    demands = per_owner.tolist()
    total = sum(demands)
    copy_counts = compute_copy_counts(demands, total, p)
    targets = assign_copies_round_robin(copy_counts, p)

    # -- step 3: replicate oversubscribed groups ---------------------------
    _replicate_stores(mach, ns, targets, replication)

    # -- step 4: split each owner's subqueries over its copies and route ---
    # Owner j's subqueries are numbered globally (rank-major, then local
    # order) — their occurrence index in the rank-major concatenation of
    # the location columns, read off one stable argsort — and subquery
    # number g goes to copy ``g // per_copy[j]``.  One pass over all
    # subqueries, then one routed exchange of whole batches.  Subqueries
    # precede expansion requests per source.
    tlen = np.asarray([len(t) for t in targets], dtype=np.int64)
    per_copy = np.maximum(1, -(-per_owner // tlen))
    tmat = np.zeros((p, int(tlen.max())), dtype=np.int64)
    for j in range(p):
        tmat[j, : len(targets[j])] = targets[j]
    loc = np.concatenate([np.asarray(b.col("location")) for b in local_subqs])
    order = np.argsort(loc, kind="stable")
    first = np.cumsum(per_owner) - per_owner  # start of owner j's sorted run
    gidx = np.empty(total, dtype=np.int64)
    gidx[order] = np.arange(total, dtype=np.int64) - first[loc[order]]
    dest_all = tmat[loc, np.minimum(gidx // per_copy[loc], tlen[loc] - 1)]
    ends = np.cumsum([len(b) for b in local_subqs])
    routed: List[RecordBatch] = []
    dests: List[np.ndarray] = []
    for r in range(p):
        subq_b = local_subqs[r]
        dest = dest_all[ends[r] - len(subq_b) : ends[r]]
        exp_b = _expand_routing_cols(hat_selections[r], d)
        if exp_b is not None:
            routed.append(RecordBatch.concat([subq_b, exp_b]))
            dests.append(
                np.concatenate([dest, np.asarray(exp_b.col("location"))])
            )
        else:
            routed.append(subq_b)
            dests.append(dest)
    inboxes = route_batches(
        mach,
        routed,
        dests,
        label="search:route-subqueries",
        template=local_subqs[0],
    )
    subqueries_per_proc = [
        int((np.asarray(box.col("kind")) == RoutingCodec.KIND_SUBQUERY).sum())
        if len(box)
        else 0
        for box in inboxes
    ]

    # -- step 5: resume the canonical walk inside the forest ---------------
    processed = mach.run_phase(
        "search:forest",
        "dist.search.forest_cols",
        [(inboxes[r], ns, report) for r in range(p)],
    )
    forest_selections = [o[0] for o in processed]
    report_pairs = [o[1] for o in processed]

    return SearchOutput(
        hat_selections=hat_selections,
        forest_selections=forest_selections,
        owner_stores=forest_store,
        demands=demands,
        copy_counts=copy_counts,
        subqueries_per_proc=subqueries_per_proc,
        total_subqueries=total,
        report_pairs=report_pairs,
    )


def _replicate_stores(
    mach: Machine,
    ns: str,
    targets: Sequence[Sequence[int]],
    strategy: str,
) -> None:
    """Step 3's group replication with a data-independent round count.

    The transfer plan comes from
    :func:`repro.cgm.loadbalance.replication_schedule` (``doubling`` is
    pinned to exactly ``log2 p`` rounds so Theorem 3's "rounds
    independent of n" claim holds by construction, not by luck); the
    stores move between ranks via the pack/unpack phases — routed, like
    every exchange, through the driver's deterministic merge — and stay
    in each holder's rank-resident replica cache.  Rounds, not
    dispatches, are the data-independent observable: a round whose
    schedule is empty is still recorded, with nothing sent.
    """
    p = mach.p
    fixed = ilog2(p) if strategy == "doubling" else None
    schedule = replication_schedule(p, targets, strategy, fixed_rounds=fixed)
    for rnd, transfers in enumerate(schedule):
        # Every scheduled round is *recorded* (the round count is the
        # data-independent observable); pack/unpack are dispatched only
        # when the round moves a store — an empty one costs no rank a call.
        if transfers:
            instructions: List[List[tuple]] = [[] for _ in range(p)]
            for sender, owner, dest in transfers:
                instructions[sender].append((owner, dest))
            rows = mach.run_phase(
                f"search:replicate:pack-{rnd}",
                "dist.search.replicate_pack",
                [(instructions[r], ns) for r in range(p)],
            )
        else:
            rows = mach.empty_outboxes()
        round_label = (
            "search:replicate:direct"
            if strategy == "direct"
            else f"search:replicate:double-{rnd}"
        )
        inboxes = mach.exchange_weighted(
            round_label,
            rows,
            weight=lambda rec: max(
                1, sum(el.size_records for el in rec[1].values())
            ),
            # bytes: the arrays the elements are, as the pickle ships them
            nbytes=lambda rec: sum(el.nbytes for el in rec[1].values()),
        )
        if transfers:
            mach.run_phase(
                f"search:replicate:unpack-{rnd}",
                "dist.search.replicate_unpack",
                [(inboxes[r], ns) for r in range(p)],
            )
