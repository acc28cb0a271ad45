"""Algorithm Search: batched queries in O(1) rounds (§5, Theorems 3-5).

A batch of ``m = O(n)`` rank-space queries is answered in a constant
number of h-relations:

1. **Hat walk** (local): each processor walks its resident hat replica
   for its slice of queries, every part at once, producing
   dimension-``d`` hat selections and the surviving subquery set ``Q'``
   aimed at forest elements.  A host runs the step once for all the
   ranks it holds: one :func:`repro.dist.hat.walk_hats` call over their
   slices laid end to end (``tests.helpers.hat_walk`` is the per-query
   reference), its output cut back per rank.
2. **Demand count** (1 round): one all-gather sums, per owner ``j``, the
   number of subqueries wanting its forest group; the copy counts
   ``c_j = ceil(|Q'_{F_j}| / ceil(|Q'|/p))`` follow locally
   (:func:`repro.cgm.loadbalance.compute_copy_counts`).
3. **Replication**: oversubscribed groups are copied to other
   processors.  ``direct`` ships every copy from the owner in one round
   (h spikes to ``c_j·|F_j|``); ``doubling`` — the engine's — recruits
   one new holder per existing holder per round, ``log2 p`` rounds always
   run in full, so the round count is a function of ``(p, strategy)``
   alone.  A copy of a group is its ``{dimension: stack}`` stores.  Step
   3 computes nothing, so the driver runs it: each owner a transfer
   names packs its group once, the driver runs every scheduled round
   from those packed groups (a record a forwarder sends is its owner's
   group, with the same h and bytes), and each holder files everything
   it received in one unpack — two dispatches however many rounds move.
4. **Subquery routing** (1 round): owner ``j``'s subqueries are split
   into ``c_j`` chunks of at most ``ceil(|Q'|/p)`` and routed to the
   copy holders, so no processor serves more than ``O(|Q'|/p)``.
5. **Forest walk** (local): each holder resumes the canonical walk
   inside its (copies of) forest groups, each subquery starting at its
   element's tree, emitting a ``dist.forest_selection`` batch and, for
   the queries the pass's ``report`` mask marks, the ``(qid, pid)``
   pairs of a ``dist.report_pair`` batch.  A host runs the step once for
   all the ranks it holds: one walk per dimension over every distinct
   stack any of them holds for that dimension (a copy two ranks hold is
   walked once), its output cut back per rank.

A query folds or it reports (Theorems 4-5): one bool mask over the batch
says which, from the hat walk's expansion requests to step 5's pairs,
and the query engine's demux (:mod:`repro.query.engine`) then folds the
selections per query.

A pass runs over one or more **parts** — structures Construct built on
the same machine, each with its own hat, forest and rank space (a static
tree is one part; the buckets of :mod:`repro.dist.dynamic` are several).
The batch is the same for every part, query ``q`` of each part is query
``q`` of the pass, and the five steps run once for all of them: one hat
walk per host, demand counted per owner over all parts, a replica of
owner ``j``'s group carrying its stores of every part, one routing round
and one step 5.  Answers over disjoint parts combine by ``⊕`` under the
query id, so the demux needs no notion of a part.

Every stream of a pass names a hat node — and the forest element rooted
at a hat leaf — by one int64 (``node`` / ``element`` columns; see
:mod:`repro.dist.records`): every part's hat has the one shape of ``(p,
d)``, ``H`` rows, so part ``b``'s row ``i`` is ``b·H + i``, the same name
on every processor, and the shape's columns turn it into the element's
owner, dimension and tree index: no step re-derives a Definition 2 label.

SPMD residency: steps 1, 3 and 5 are registered phases
(``dist.search.*``) reading the rank-resident ``{ns}:forest`` /
``{ns}:hat`` state that Algorithm Construct left behind under each
part's namespace ``ns``; only query boxes, selection/routing batches and
replicated stacks cross the boundary.  Steps 1 and 5 are host phases
(:func:`~repro.cgm.phases.register_host_phase`), kept in
:mod:`repro.dist.search_walks`: the serial backend runs each once over
all ``p`` ranks, a process worker over its one, and every rank's output,
charge, h and bytes are what it would emit alone.  This module keeps the
driver: :func:`run_search` and step 3's replication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..cgm.collectives import allgather, route_batches
from ..cgm.columns import RecordBatch
from ..cgm.loadbalance import (
    REPLICATION_STRATEGIES,
    assign_copies_round_robin,
    compute_copy_counts,
    replication_schedule,
)
from ..cgm.machine import Machine
from ..cgm.phases import ProcContext, register_phase
from ..errors import ReproError
from . import search_walks  # noqa: F401  (registers steps 1 and 5)
from .construct import forest_key, holders_key
from .records import KIND_SUBQUERY

__all__ = ["SearchOutput", "run_search"]


@dataclass
class SearchOutput:
    """Everything Algorithm Search leaves distributed over the machine.

    ``hat_selections[r]``/``forest_selections[r]`` are the selections
    produced at rank ``r`` as ``dist.hat_selection`` /
    ``dist.forest_selection`` batches naming nodes and elements ``part·H
    + row`` — for one part, row for row what the tests' reference walks
    (``tests.helpers.hat_walk``, ``tests.helpers.RangeTree.canonical``)
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


@register_phase("dist.search.replicate_pack")
def _phase_replicate_pack(ctx: ProcContext, nss) -> tuple:
    """Step 3a: this rank's own group, its store of every part named in
    ``nss``, in that order (``nss`` is empty where no transfer names it)."""
    return tuple(ctx.state.get(forest_key(ns)) or {} for ns in nss)


@register_phase("dist.search.replicate_unpack")
def _phase_replicate_unpack(ctx: ProcContext, payload) -> None:
    """Step 3b: file every copy this rank received, in every round, in
    its replica caches."""
    inbox, nss = payload
    holders = [ctx.state.setdefault(holders_key(ns), {}) for ns in nss]
    for owner, stores in inbox:
        for held, store in zip(holders, stores):
            held[owner] = store
    return None


def run_search(
    mach: Machine,
    parts: Sequence[Tuple[str, Tuple[np.ndarray, np.ndarray]]],
    report: "np.ndarray | bool | None" = None,
    replication: str = "doubling",
) -> SearchOutput:
    """Execute Algorithm Search for a batch of rank-space queries.

    ``parts`` holds one ``(ns, (los, his))`` per structure the pass
    searches (a static tree is one part).  ``ns`` names the machine
    state namespace where Construct left the structure resident
    (:attr:`ConstructResult.ns`); ``(los, his)`` is the batch in that
    structure's rank space — the int64 ``(m, d)`` pair of
    :meth:`~repro.geometry.rankspace.RankSpace.to_rank_bounds`, the
    form the batch keeps down to the hat walk, sliced per rank as views.
    Every part holds the same ``m`` queries; the parts' structures must
    share their dimension (so their hats share one shape) and their
    annotation (so their ``agg`` columns concatenate).

    ``report`` is a bool ``(m,)`` mask (or one bool for the whole batch;
    ``None``: no query reports) — a query folds its selections or it
    reports its points.  A marked query's hat selections are expanded
    *inside* the pass: the walk emits one expansion request per forest
    element tiling them, the requests ride the step-4 routing round to the
    elements' owners and the step-5 walk expands them, so report output
    costs no round beyond the pass (``SearchOutput.report_pairs``).
    ``replication`` is step 3's strategy, ``"doubling"`` or ``"direct"``.
    A mask of another shape or another strategy raises
    :class:`~repro.errors.ReproError` before a phase runs.
    """
    p = mach.p
    if not parts:
        raise ReproError("a Search pass needs at least one part")
    if replication not in REPLICATION_STRATEGIES:
        raise ReproError(
            f"unknown replication strategy {replication!r}; "
            f"expected one of {REPLICATION_STRATEGIES}"
        )
    nss = tuple(ns for ns, _bounds in parts)
    bounds = [b for _ns, b in parts]
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
                nss,
                [(los[r * chunk : (r + 1) * chunk], his[r * chunk : (r + 1) * chunk])
                 for los, his in bounds],
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

    The driver plans the transfers
    (:func:`repro.cgm.loadbalance.replication_schedule`: ``doubling`` is
    always exactly ``log2 p`` rounds, so Theorem 3's "rounds independent
    of n" holds by construction) and runs them: every owner a transfer
    names packs its group — its stores of every part in ``nss`` — once,
    each round ships ``(owner, stores)`` records from the scheduled
    senders, and every holder files what it received in one unpack.
    """
    p = mach.p
    schedule = replication_schedule(p, targets, strategy)
    owners = {owner for transfers in schedule for _sender, owner, _dest in transfers}
    # Every scheduled round is *recorded* (rounds, not dispatches, are the
    # observable); pack/unpack run only for a pass that moves a store.
    if owners:
        groups = mach.run_phase(
            "search:replicate:pack",
            "dist.search.replicate_pack",
            [nss if r in owners else () for r in range(p)],
        )
    received: List[list] = [[] for _ in range(p)]
    for rnd, transfers in enumerate(schedule):
        rows = mach.empty_outboxes()
        for sender, owner, dest in transfers:
            rows[sender][dest].append((owner, groups[owner]))
        round_label = (
            "search:replicate:direct"
            if strategy == "direct"
            else f"search:replicate:double-{rnd}"
        )
        inboxes = mach.exchange_weighted(
            round_label,
            rows,
            weight=lambda rec: max(
                1, sum(st.size_records for store in rec[1] for st in store.values())
            ),
            # bytes: the arrays the stacks are, as the pickle ships them
            nbytes=lambda rec: sum(st.nbytes for store in rec[1] for st in store.values()),
        )
        for held, inbox in zip(received, inboxes):
            held.extend(inbox)
    if owners:
        mach.run_phase(
            "search:replicate:unpack",
            "dist.search.replicate_unpack",
            [(received[r], nss) for r in range(p)],
        )
