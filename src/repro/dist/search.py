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
   ``dist.forest_selection`` batch and, for the queries the pass's
   ``report`` mask marks, the ``(qid, pid)`` pairs of a
   ``dist.report_pair`` batch.

A query folds or it reports (Theorems 4-5): one bool mask over the batch
says which, from the hat walk's expansion requests to step 5's pairs,
and :mod:`repro.dist.modes` then folds the selections per query.

A pass runs over one or more **parts** — structures Construct built on
the same machine, each with its own hat, forest and rank space (a static
tree is one part; the buckets of :mod:`repro.dist.dynamic` are several).
The batch is the same for every part, query ``q`` of each part is query
``q`` of the pass, and the five steps run once for all of them: a rank
walks its query slice against every part's hat, demand is counted per
owner over all parts, a replica of owner ``j``'s group carries its
stores of every part, one round routes every subquery and one step 5
serves them.  Answers over disjoint parts combine by ``⊕`` under the
query id, so the demux needs no notion of a part.

Every stream of a pass names a hat node — and the forest element rooted
at a hat leaf — by its row in the parts' hats laid end to end
(``node`` / ``element`` columns; see :mod:`repro.dist.records`): part
``b``'s row ``i`` is ``base[b] + i``, ``base`` the running sum of the
hat sizes.  The hats are replicated, so the row is the same name on
every processor and no step re-derives a Definition 2 label except to
look an element up in a store, once per element.

SPMD residency: steps 1, 3 and 5 are registered phases
(``dist.search.*``) reading the rank-resident ``{ns}:forest`` /
``{ns}:hat`` state that Algorithm Construct left behind under each
part's namespace ``ns``; only query boxes, selection/routing batches and
replicated element stores cross the boundary.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple

import numpy as np

from ..cgm.collectives import allgather, route_batches
from ..cgm.columns import RecordBatch
from ..cgm.loadbalance import (
    assign_copies_round_robin,
    compute_copy_counts,
    replication_schedule,
)
from ..cgm.machine import Machine
from ..cgm.phases import ProcContext, register_phase
from ..errors import ProtocolError, ReproError
from ..geometry.box import RankBoxes, rank_bounds
from .construct import forest_key, hat_key
from .forest_compiled import batched_forest_selections
from .hat import Hat
from .records import KIND_EXPAND, KIND_SUBQUERY

__all__ = ["SearchOutput", "run_search"]


def _holders_key(ns: str) -> str:
    return f"{ns}:holders"


def _hat_bases(hats: Sequence[Hat]) -> List[int]:
    """Where each part's rows start in the hats laid end to end, plus
    the total — the same list on every rank (the hats are replicated)."""
    bases = [0]
    for hat in hats:
        bases.append(bases[-1] + hat.size_nodes())
    return bases


@dataclass
class SearchOutput:
    """Everything Algorithm Search leaves distributed over the machine.

    ``hat_selections[r]``/``forest_selections[r]`` are the selections
    produced at rank ``r``, always as a
    :class:`~repro.cgm.columns.RecordBatch` (``dist.hat_selection`` /
    ``dist.forest_selection``) naming nodes and elements by their row in
    the parts' hats laid end to end — for one part, row for row what the
    reference walks (:meth:`Hat.walk`,
    :meth:`RangeTree.canonical <repro.seq.range_tree.RangeTree.canonical>`)
    emit.  The load-balancing observables of steps 2-4 (``demands`` per
    owner, ``copy_counts``, per-processor subquery counts) are what the
    M1/S1 experiments and the Theorem 3 tests measure.
    """

    hat_selections: List[RecordBatch]
    forest_selections: List[RecordBatch]
    demands: List[int] = field(default_factory=list)
    copy_counts: List[int] = field(default_factory=list)
    subqueries_per_proc: List[int] = field(default_factory=list)
    total_subqueries: int = 0
    #: The points of the queries the pass's ``report`` mask marks, one
    #: ``dist.report_pair`` batch of ``(qid, pid)`` per rank: the points
    #: under its forest selections, then those of the hat selections
    #: expanded at the elements' owners.
    report_pairs: List[RecordBatch] = field(default_factory=list)


@register_phase("dist.search.walk_cols")
def _phase_walk_cols(ctx: ProcContext, payload) -> tuple:
    """Step 1: the hat walk over this rank's whole query slice.

    One :meth:`~repro.dist.hat.Hat.walk_batch` call classifies
    every live ``(query, node)`` frontier pair with array comparisons
    and returns its outputs column-packed — the ``dist.hat_selection``
    batch (row for row what :meth:`Hat.walk` emits, in the same order)
    and the two routing batches the step-4 exchange ships, subqueries
    and expansion requests — plus this rank's share of step 2's demand
    count (subqueries per owner — nothing is exchanged between the walk
    and the count, so they are one phase).  The per-query visit counts
    charge the same Theorem 3 total as per-query :meth:`Hat.walk` calls.

    ``parts`` holds one ``(ns, los, his)`` per part — its namespace and
    this slice's rank bounds in its rank space; each part's hat is
    walked in turn and its rows shifted past the hats before it, so the
    three batches name nodes and elements by concatenated hat row.

    Also resets the pass-local replica caches — stale copies from a
    previous batch must never serve this one.
    """
    qlo, parts, report = payload
    hats = [ctx.state[hat_key(ns)] for ns, _los, _his in parts]
    walks = []
    visited = 0
    for (ns, los, his), hat, base in zip(parts, hats, _hat_bases(hats)):
        ctx.state[_holders_key(ns)] = {}
        sels, subqueries, expansions, visits = hat.walk_batch(qlo, los, his, report)
        visited += int(visits.sum())
        if base:
            sels = sels.with_col("node", sels.col("node") + base)
            subqueries = subqueries.with_col("element", subqueries.col("element") + base)
            expansions = expansions.with_col("element", expansions.col("element") + base)
        walks.append((sels, subqueries, expansions))
    if len(report):
        ctx.charge(visited)
    sels, subqueries, expansions = map(RecordBatch.concat, zip(*walks))
    demand = np.bincount(subqueries.col("location"), minlength=ctx.p)
    return sels, subqueries, expansions, demand


def _forest_output(qid, element, nleaves, agg, pair_qid, pair_pid) -> tuple:
    """Step 5's result: the selection batch and the report pairs — real
    points only; power-of-two padding sentinels are dropped here."""
    real = pair_pid >= 0
    return (
        RecordBatch(
            "dist.forest_selection",
            {"qid": qid, "element": element, "nleaves": nleaves, "agg": agg},
            len(qid),
        ),
        RecordBatch("dist.report_pair", {"qid": pair_qid[real], "pid": pair_pid[real]}),
    )


_NO_ROWS = np.empty(0, dtype=np.int64)
#: What a rank with an empty inbox returns from step 5 (an object ``agg``
#: column, as for any inbox whose walks select nothing).
_NO_FOREST_ROWS = _forest_output(
    _NO_ROWS, _NO_ROWS, _NO_ROWS, np.empty(0, dtype=object), _NO_ROWS, _NO_ROWS
)


@register_phase("dist.search.forest_cols")
def _phase_forest_cols(ctx: ProcContext, payload) -> tuple:
    """Step 5: batched walks over resident forest elements.

    The inbox is one routing batch (subqueries and expansion requests
    mixed, source-ordered).  Subqueries group by target element — one
    stable argsort of the ``element`` column; the element's part,
    label, owner, store and :class:`~repro.dist.forest.ForestElement`
    are resolved once per group through the parts' resident hats
    (``nss`` names the parts in the pass's order) — and each
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
    inbox, nss, report = payload
    if not len(inbox):
        return _NO_FOREST_ROWS
    r = ctx.rank
    hats = [ctx.state[hat_key(ns)] for ns in nss]
    bases = _hat_bases(hats)
    forests = [ctx.state.get(forest_key(ns)) or {} for ns in nss]
    holders = [ctx.state.get(_holders_key(ns)) or {} for ns in nss]

    def locate(eid: int) -> Tuple[int, Hat, int]:
        """``(part, its hat, row in it)`` of concatenated hat row ``eid``."""
        b = bisect_right(bases, eid) - 1
        return b, hats[b], eid - bases[b]

    kind = inbox.col("kind")
    qid_col = inbox.col("qid")
    eid_col = inbox.col("element")

    # Owners always keep their own store; expand in place (row order).
    exp_qids: List[np.ndarray] = []
    exp_pids: List[np.ndarray] = []
    for i in np.flatnonzero(kind == KIND_EXPAND).tolist():
        b, hat, row = locate(int(eid_col[i]))
        el = forests[b][hat.path(row)]
        # rows ascend in the element's own dimension: the order
        # the hat-side expansion has always emitted
        exp_qids.append(np.full(len(el.pids), qid_col[i]))
        exp_pids.append(el.pids)
        ctx.charge(el.nleaves)

    # Subquery rows by target element, inbox order within an element.
    rows = np.flatnonzero(kind == KIND_SUBQUERY)
    rows = rows[np.argsort(eid_col[rows], kind="stable")]
    eids, starts = np.unique(eid_col[rows], return_index=True)
    groups: List[Tuple[Any, np.ndarray]] = []
    for eid, group in zip(eids.tolist(), np.split(rows, starts[1:])):
        b, hat, row = locate(eid)
        owner = int(hat.location[row])
        store = forests[b] if owner == r else holders[b].get(owner)
        fid = hat.path(row)
        if store is None or fid not in store:
            raise ProtocolError(
                f"rank {r} received subquery for {fid} "
                f"without holding a copy of group {owner}"
            )
        groups.append((store[fid], group))

    sel_rows, nleaves, agg_col, pair_rows, pair_pids = batched_forest_selections(
        groups, inbox.col("los"), inbox.col("his"), report[qid_col], ctx.charge
    )
    return _forest_output(
        qid_col[sel_rows],
        eid_col[sel_rows],
        nleaves,
        agg_col,
        np.concatenate([qid_col[pair_rows], *exp_qids]),
        np.concatenate([pair_pids, *exp_pids]),
    )


@register_phase("dist.search.replicate_pack")
def _phase_replicate_pack(ctx: ProcContext, payload) -> list:
    """Step 3a: emit this rank's scheduled copy transfers as an outbox row.

    A copy of owner ``j``'s group is ``(j, stores)``, ``stores`` its
    store of every part named in ``nss``, in that order.
    """
    instructions, nss = payload
    forests = [ctx.state.get(forest_key(ns)) or {} for ns in nss]
    holders = [ctx.state.setdefault(_holders_key(ns), {}) for ns in nss]
    out: list[list] = [[] for _ in range(ctx.p)]
    for owner, dest in instructions:
        if owner == ctx.rank:
            stores = tuple(forests)
        else:
            stores = tuple(held.get(owner) for held in holders)
        if None in stores:
            raise ProtocolError(
                f"rank {ctx.rank} was scheduled to forward group {owner} "
                "without holding a copy"
            )
        out[dest].append((owner, stores))
    return out


@register_phase("dist.search.replicate_unpack")
def _phase_replicate_unpack(ctx: ProcContext, payload) -> None:
    """Step 3b: file the received copies in the rank's replica caches."""
    inbox, nss = payload
    holders = [ctx.state.setdefault(_holders_key(ns), {}) for ns in nss]
    for owner, stores in inbox:
        for held, store in zip(holders, stores):
            held[owner] = store
    return None


def run_search(
    mach: Machine,
    parts: Sequence[Tuple[str, RankBoxes]],
    report: "np.ndarray | bool | None" = None,
    replication: str = "doubling",
) -> SearchOutput:
    """Execute Algorithm Search for a batch of rank-space queries.

    ``parts`` holds one ``(ns, rank_boxes)`` per structure the pass
    searches (a static tree is one part).  ``ns`` names the machine
    state namespace where Construct left the structure resident
    (:attr:`ConstructResult.ns`; a tree's ``_ensure_resident()``);
    ``rank_boxes`` is the batch in that structure's rank space — the
    int64 ``(m, d)`` pair ``(los, his)`` of
    :meth:`~repro.geometry.rankspace.RankSpace.to_rank_bounds`, the
    form the batch keeps down to the hat walk, sliced per rank as views
    — or a :class:`RankBox` sequence, stacked once on entry.  Every part
    holds the same ``m`` queries; the parts' structures must share their
    annotation, so their ``agg`` columns concatenate.

    ``report`` is a bool ``(m,)`` mask (or one bool for the whole batch;
    ``None``: no query reports) — a query folds its selections or it
    reports its points; any other shape raises
    :class:`~repro.errors.ReproError` before a phase runs.  A marked
    query's hat selections are expanded into ``(qid, pid)`` pairs
    *inside* the pass: the walk emits one expansion request per forest
    element tiling them, the requests ride the step-4 routing round to the
    elements' owners and the owners expand them during the step-5 walk,
    which also emits the points under the query's forest selections, so
    report output costs no communication round beyond the pass itself
    (``SearchOutput.report_pairs`` holds the pairs per rank).  Unmarked
    queries skip the requests and the leaf gather.
    """
    p = mach.p
    if not parts:
        raise ReproError("a Search pass needs at least one part")
    nss = tuple(ns for ns, _boxes in parts)
    bounds = [rank_bounds(boxes) for _ns, boxes in parts]
    m = len(bounds[0][0])
    if any(len(los) != m for los, _his in bounds):
        raise ReproError(
            f"every part of a pass holds the same queries, got batches of "
            f"{[len(los) for los, _his in bounds]}"
        )
    report = np.asarray(report, dtype=bool)
    if report.ndim and report.shape != (m,):
        raise ReproError(
            f"report mask has shape {report.shape} but the batch has m={m} "
            "queries: pass one bool or one flag per query"
        )
    report = np.broadcast_to(report, (m,))
    chunk = -(-m // p) if m else 1

    # -- step 1: hat walk over each processor's query block, every part ----
    walked = mach.run_phase(
        "search:walk",
        "dist.search.walk_cols",
        [
            (
                r * chunk,
                tuple(
                    (ns, los[r * chunk : (r + 1) * chunk], his[r * chunk : (r + 1) * chunk])
                    for ns, (los, his) in zip(nss, bounds)
                ),
                report[r * chunk : (r + 1) * chunk],
            )
            for r in range(p)
        ],
    )
    hat_selections = [w[0] for w in walked]
    local_subqs = [w[1] for w in walked]

    # -- step 2: demand per forest group (one all-gather) ------------------
    demand_matrix = np.stack(
        allgather(mach, [w[3] for w in walked], label="search:demands")[0]
    )
    per_owner = demand_matrix.sum(axis=0)
    demands = per_owner.tolist()
    total = sum(demands)
    copy_counts = compute_copy_counts(demands, total, p)
    targets = assign_copies_round_robin(copy_counts, p)

    # -- step 3: replicate oversubscribed groups (every part's stores) ------
    _replicate_stores(mach, nss, targets, replication)

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
    loc = np.concatenate([b.col("location") for b in local_subqs])
    order = np.argsort(loc, kind="stable")
    first = np.cumsum(per_owner) - per_owner  # start of owner j's sorted run
    gidx = np.empty(total, dtype=np.int64)
    gidx[order] = np.arange(total, dtype=np.int64) - first[loc[order]]
    dest_all = tmat[loc, np.minimum(gidx // per_copy[loc], tlen[loc] - 1)]
    ends = np.cumsum([len(b) for b in local_subqs])
    routed: List[RecordBatch] = []
    dests: List[np.ndarray] = []
    for r in range(p):
        _sels, subq_b, exp_b, _demand = walked[r]
        dest = dest_all[ends[r] - len(subq_b) : ends[r]]
        # an expansion goes to its element's owner, which keeps its store
        routed.append(RecordBatch.concat([subq_b, exp_b]))
        dests.append(np.concatenate([dest, exp_b.col("location")]))
    inboxes = route_batches(
        mach,
        routed,
        dests,
        label="search:route-subqueries",
        template=local_subqs[0],
    )
    subqueries_per_proc = [
        int((box.col("kind") == KIND_SUBQUERY).sum()) for box in inboxes
    ]

    # -- step 5: resume the canonical walk inside the forest ---------------
    processed = mach.run_phase(
        "search:forest",
        "dist.search.forest_cols",
        [(inboxes[r], nss, report) for r in range(p)],
    )
    forest_selections = [o[0] for o in processed]
    report_pairs = [o[1] for o in processed]

    return SearchOutput(
        hat_selections=hat_selections,
        forest_selections=forest_selections,
        demands=demands,
        copy_counts=copy_counts,
        subqueries_per_proc=subqueries_per_proc,
        total_subqueries=total,
        report_pairs=report_pairs,
    )


def _replicate_stores(
    mach: Machine,
    nss: Tuple[str, ...],
    targets: Sequence[Sequence[int]],
    strategy: str,
) -> None:
    """Step 3's group replication with a data-independent round count.

    The transfer plan comes from
    :func:`repro.cgm.loadbalance.replication_schedule` (``doubling`` is
    always exactly ``log2 p`` rounds, so Theorem 3's "rounds
    independent of n" claim holds by construction, not by luck); the
    stores move between ranks via the pack/unpack phases — routed, like
    every exchange, through the driver's deterministic merge — and stay
    in each holder's rank-resident replica caches — a copy of a group
    carries its stores of every part in ``nss``.  Rounds, not
    dispatches, are the data-independent observable: a round whose
    schedule is empty is still recorded, with nothing sent.
    """
    p = mach.p
    schedule = replication_schedule(p, targets, strategy)
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
                [(instructions[r], nss) for r in range(p)],
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
                1, sum(el.size_records for store in rec[1] for el in store.values())
            ),
            # bytes: the arrays the elements are, as the pickle ships them
            nbytes=lambda rec: sum(el.nbytes for store in rec[1] for el in store.values()),
        )
        if transfers:
            mach.run_phase(
                f"search:replicate:unpack-{rnd}",
                "dist.search.replicate_unpack",
                [(inboxes[r], nss) for r in range(p)],
            )
