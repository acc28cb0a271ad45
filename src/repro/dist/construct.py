"""Algorithm Construct: building the distributed tree in O(1) rounds (§5).

Theorem 2 / Corollary 1: a CGM(s, p) machine builds the d-dimensional
distributed range tree with ``O(s/p)`` memory and local work per
processor and a *constant* number of communication rounds per dimension.
The implementation follows the paper's record flow:

phase ``j`` (one per dimension, ``j = 0 .. d-1``)
    1. **Sort** the phase's ``dist.srecord`` batches (the S-records of
       §5; see :mod:`repro.dist.records`) by their int64 ``key``,
       ``tree·n + rank_j`` — the black-box CGM sample sort (4 rounds).
       ``tree`` is the key the hat shape gives the record's segment
       tree: its rank among the phase's tree labels, so the sort orders
       records by ``(tree, rank_j)``, that is by Definition 2 label,
       without shipping one.
       Per the §6 caveat, phase ``j`` sorts ``n·log^{j-1} p`` records,
       not ``n``; :attr:`ConstructResult.phase_record_counts` measures it.
    2. **Name** every record's group: a prefix count gives its global
       position (1 round).  Tree sizes are multiples of ``n/p``, so
       consecutive runs of ``n/p`` records are exactly the hat-leaf
       groups of Definition 3, and group ``g`` is the element below hat
       leaf ``groups[j][g]`` of the ``(p, d)``
       :class:`~repro.dist.hat.HatShape`, which also names its owner.
    3. **Route** each group to its owner (1 round).  An owner stacks all
       its phase-``j`` groups in one array build — each a
       ``(d-j)``-dimensional range tree on ``n/p`` points, its index in
       the stack the element's name at the owner.  Each record also
       fans out one new record per internal hat ancestor of its group's
       leaf, keyed by the descendant tree that ancestor anchors: the
       input of phase ``j+1``.

finale
    5. **Broadcast** every element's root — its hat leaf's row, its rank
       segment and its encoded aggregate, one ``dist.root`` batch per
       rank (:func:`repro.dist.hat.forest_roots`) — in 1 round; every
       host then seats the identical hat columns by row once
       (:meth:`repro.dist.hat.Hat.build`) and copies them to its other
       ranks, with zero further rounds.

The round count is ``6d + 1`` — fixed by ``d`` alone, never by ``n``,
which is exactly what the Corollary 1 tests measure.

Construct builds topology only: an S-record carries no value, and the
stacks and the hat are born under :data:`~repro.semigroup.NO_LAYERS`,
zero columns wide (a count is a node's width, so a COUNT tree stays
so).  A declared value annotation is Algorithm AssociativeFunction's
step 1, applied after Construct by the refit every re-annotation takes
(:meth:`repro.dist.DistributedRangeTree.build`).

If a step raises, Construct evicts what it left on the ranks before
the error propagates: a failed build leaves no rank state.

SPMD residency: the per-rank steps run as registered phases
(``dist.construct.*``), and what they build *stays with the executor* —
the forest group, one stack per dimension, under the ``{ns}:forest``
state key, each rank's own hat replica under ``{ns}:hat``.  Only record
batches (S-records, roots) and numpy rank blocks ever cross the
driver/worker boundary; the driver reads the rest through state views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .._util import require_power_of_two, slice_positions
from ..cgm.collectives import allgather, route_batches
from ..cgm.columns import RecordBatch
from ..cgm.machine import Machine
from ..cgm.phases import ProcContext, register_host_phase, register_phase
from ..cgm.sort import sample_sort_cols
from ..errors import MachineError
from ..geometry.rankspace import RankedPointSet
from ..semigroup import NO_LAYERS
from ..semigroup.kernels import KernelColumn
from .forest import build_stack
from .hat import Hat, forest_roots, hat_shape

__all__ = ["ConstructResult", "construct_distributed_tree"]


def forest_key(ns: str) -> str:
    """State key of a tree's rank-resident forest group (``{j: stack}``)."""
    return f"{ns}:forest"


def hat_key(ns: str) -> str:
    """State key of a tree's rank-resident hat replica."""
    return f"{ns}:hat"


def holders_key(ns: str) -> str:
    """State key of a tree's per-pass replica cache (``owner -> store``)."""
    return f"{ns}:holders"


def tree_keys(ns: str) -> tuple:
    """Every state key a tree may hold on a rank: what closing it evicts."""
    return forest_key(ns), hat_key(ns), holders_key(ns)


def evict_tree(mach: Machine, ns: str) -> None:
    """Evict every key of tree ``ns`` from the ranks; stop quietly when
    the backend is already shut down (its state went with it)."""
    for key in tree_keys(ns):
        try:
            mach.evict_state(key)
        except Exception:
            break


@dataclass
class ConstructResult:
    """Everything Algorithm Construct leaves behind.

    ``hats[r]`` is processor ``r``'s own hat replica and
    ``forest_store[r]`` its group ``F_r`` of Theorem 1: ``{j: stack}``,
    its phase-``j`` elements as one
    :class:`~repro.seq.compiled.CompiledForest` (the hat leaf naming an
    element holds its tree index).  Both are state views — the live
    rank stores on the serial backend, lazily fetched copies on the
    process backend.  ``phase_record_counts[j]`` is the number of records
    phase ``j`` sorted (the §6 caveat's measurement), and ``ns`` names
    the machine state namespace the structure is resident under.
    """

    hats: Sequence[Hat]
    forest_store: Sequence[dict]
    phase_record_counts: List[int]
    ns: str

    @property
    def hat(self) -> Hat:
        """Rank 0's hat replica (every rank holds an equal one)."""
        return self.hats[0]

    def forest_group_sizes(self) -> List[int]:
        """Points held per processor's forest group (Theorem 1(ii) balance)."""
        return [
            sum(len(stack.pids) for stack in store.values()) for store in self.forest_store
        ]


@register_host_phase("dist.construct.build_hat")
def _phase_build_hat(ctxs: Sequence[ProcContext], payloads) -> list:
    """Construct step 5 finale: every rank holds the identical hat.

    A host builds it once per distinct roots batch (a broadcast delivers
    one to its whole block) and gives each other rank its own replica
    (:meth:`~repro.dist.hat.Hat.replica`); each rank is charged the
    build it would make alone.  The hat — its columns, the only form it
    has — stays rank-resident under ``{ns}:hat``; none crosses back.
    """
    built: dict = {}
    for ctx, (roots, d, n, p, ns) in zip(ctxs, payloads):
        hat = built.get(id(roots))
        if hat is None:
            hat = built[id(roots)] = Hat.build(roots, d=d, n=n, p=p)
        else:
            hat = hat.replica()
        ctx.charge(hat.size_nodes())
        ctx.state[hat_key(ns)] = hat
    return [None] * len(ctxs)


@register_phase("dist.construct.scatter_cols")
def _phase_scatter_cols(ctx: ProcContext, payload) -> RecordBatch:
    """Initial distribution: this rank's block of points as one batch,
    every record in ``T1`` (tree 0, so its sort key is its rank)."""
    rank_rows, ids = payload
    n = len(ids)
    ctx.charge(n)
    ranks = np.ascontiguousarray(rank_rows, dtype=np.int64)
    return RecordBatch(
        "dist.srecord",
        {
            "key": ranks[:, 0].copy(),
            "ranks": ranks,
            "pid": np.asarray(ids, dtype=np.int64),
        },
        n,
    )


@register_phase("dist.construct.build_elements_cols")
def _phase_build_elements_cols(ctx: ProcContext, payload) -> dict:
    """Construct step 3-4: stack the owned forest elements, fan out phase j+1.

    The rank's phase-``j`` elements land in the rank-resident
    ``{ns}:forest`` store as one stack (:func:`~repro.dist.forest.build_stack`)
    under key ``j``; only its trees' ``dist.root`` batch, the next phase's
    records, and the held record count — the rank's stacks plus the
    next phase's records, for the driver's capacity check — are returned.

    The inbox batch arrives in ascending global (rank) order — the sort
    plus the deterministic source-ordered merge guarantee it — so each
    forest group is one contiguous run of ``k = n/p`` rows, and the hat
    shape names the leaf of each (:meth:`~repro.dist.hat.HatShape.stack_rows`).
    The phase ``j+1`` fan-out is pure array ops: each row repeated once
    per proper ancestor of its leaf, in the tree the shape's ``fan_keys``
    name, its sort key ``tree·n + rank_{j+1}``.
    """
    batch: RecordBatch = payload["inbox"]
    j, k, ns = payload["j"], payload["k"], payload["ns"]
    shape = hat_shape(ctx.p, payload["d"])
    forest = ctx.state.setdefault(forest_key(ns), {})

    n = len(batch)
    rows = shape.stack_rows(ctx.rank, j, n // k)
    ranks, pids = batch.col("ranks"), batch.col("pid")
    aggs = KernelColumn.from_values(NO_LAYERS.kernel, ())  # p = 1 has no phase-j > 0 trees
    if n:
        stack = forest[j] = build_stack(ranks, pids, j, k)
        ctx.charge(stack.size_records)
        aggs = stack.root_aggs()
    roots = forest_roots(rows, ranks[::k, j], ranks[k - 1 :: k, j], aggs)
    if j < payload["d"] - 1:
        ctx.charge(n)

    # per member, one record per ancestor of its leaf (member-major order)
    fan = np.repeat(shape.fan_len[rows], k)
    tree = shape.fan_keys[slice_positions(np.repeat(shape.fan_off[rows], k), fan)]
    next_ranks = np.repeat(ranks, fan, axis=0)
    next_batch = RecordBatch(
        "dist.srecord",
        {
            # the last phase fans out nothing
            "key": tree * (k * ctx.p) + next_ranks[:, j + 1] if j + 1 < payload["d"] else tree,
            "ranks": next_ranks,
            "pid": np.repeat(pids, fan),
        },
    )
    held = sum(stack.size_records for stack in forest.values()) + len(next_batch)
    return {"roots": roots, "next_records": next_batch, "held": held}


def construct_distributed_tree(mach: Machine, ranked: RankedPointSet) -> ConstructResult:
    """Run Algorithm Construct on ``mach`` (§5, Theorem 2): the tree's
    topology, under :data:`~repro.semigroup.NO_LAYERS`.

    ``ranked`` must be power-of-two padded with ``n >= p``.  Raises
    :class:`~repro.errors.MachineError` when ``p`` exceeds the padded
    point count and :class:`~repro.errors.PowerOfTwoError` for a
    non-power-of-two ``p``; a step that raises leaves no rank state.
    """
    p = mach.p
    require_power_of_two("processor count p", p)
    n = ranked.n
    require_power_of_two("padded point count n", n)
    if p > n:
        raise MachineError(
            f"p={p} processors exceed the padded point count n={n}; "
            "pad with minimum=p (see pad_to_power_of_two)"
        )
    ns = mach.new_ns("tree")
    try:
        phase_counts = _construct(mach, ranked, ns)
    except BaseException:
        evict_tree(mach, ns)
        raise
    return ConstructResult(
        hats=mach.state_view(hat_key(ns)),
        forest_store=mach.state_view(forest_key(ns), default=dict),
        phase_record_counts=phase_counts,
        ns=ns,
    )


def _construct(mach: Machine, ranked: RankedPointSet, ns: str) -> List[int]:
    """Construct's steps, resident under ``ns``; returns the records each
    phase sorted."""
    p, n, d = mach.p, ranked.n, ranked.dim
    shape = hat_shape(p, d)
    k = n // p  # records per forest group

    # Initial distribution: block of n/p point records per processor (the
    # CGM input convention; a local-computation step, no round).
    current = mach.run_phase(
        "construct:scatter-points",
        "dist.construct.scatter_cols",
        [(ranked.ranks[r * k : (r + 1) * k], ranked.ids[r * k : (r + 1) * k]) for r in range(p)],
    )

    roots_local: List[List[RecordBatch]] = [[] for _ in range(p)]
    phase_counts: List[int] = []

    for j in range(d):
        label = f"construct:phase{j}"
        phase_counts.append(sum(len(box) for box in current))

        # -- step 1: the black-box CGM sort --------------------------------
        current = sample_sort_cols(mach, current, "key", label=f"{label}:sort")

        # -- step 2: name positions; group g is hat leaf groups[j][g] ------
        all_counts = allgather(
            mach, [len(b) for b in current], label=f"{label}:positions"
        )[0]
        groups = shape.groups[j]

        # -- step 3: route each group to its hat leaf's owner --------------
        dests: List[np.ndarray] = []
        base = 0
        for r in range(p):
            g = (base + np.arange(len(current[r]), dtype=np.int64)) // k
            dests.append(shape.location[groups[g]])
            base += all_counts[r]
        inboxes = route_batches(
            mach,
            current,
            dests,
            label=f"{label}:route-groups",
            template=current[0].islice(0, 0),
        )

        # -- step 4: stack the elements + fan out next-phase records locally -
        built = mach.run_phase(
            f"{label}:build-elements",
            "dist.construct.build_elements_cols",
            [
                {"inbox": inboxes[r], "j": j, "k": k, "d": d, "ns": ns}
                for r in range(p)
            ],
        )
        for r in range(p):
            roots_local[r].append(built[r]["roots"])
            mach.check_capacity(r, built[r]["held"])
        current = [built[r]["next_records"] for r in range(p)]

    # -- step 5: broadcast forest roots; build the identical hat per host --
    roots = [RecordBatch.concat(batches) for batches in roots_local]
    gathered = mach.exchange_batches("construct:roots", [[b] * p for b in roots], roots[0])

    mach.run_phase(
        "construct:build-hat",
        "dist.construct.build_hat",
        [(gathered[r], d, n, p, ns) for r in range(p)],
    )
    return phase_counts
