"""Algorithm Construct: building the distributed tree in O(1) rounds (§5).

Theorem 2 / Corollary 1: a CGM(s, p) machine builds the d-dimensional
distributed range tree with ``O(s/p)`` memory and local work per
processor and a *constant* number of communication rounds per dimension.
The implementation follows the paper's record flow:

phase ``j`` (one per dimension, ``j = 0 .. d-1``)
    1. **Sort** the phase's ``dist.srecord`` batches (the S-records of
       §5; see :mod:`repro.dist.records`) by ``(tree_id, rank_j)`` — the
       black-box CGM sample sort (4 rounds).
       Per the §6 caveat, phase ``j`` sorts ``n·log^{j-1} p`` records,
       not ``n``; :attr:`ConstructResult.phase_record_counts` measures it.
    2. **Name** every record's position: a segmented scan gives its rank
       inside its segment tree, a prefix count its global position
       (2 rounds).  Tree sizes are multiples of ``n/p``, so consecutive
       runs of ``n/p`` records are exactly the hat-leaf groups of
       Definition 3, and pure arithmetic (:mod:`repro.dist.labeling`)
       yields each group's forest id and its owner ``group_rank mod p``.
    3. **Route** each group to its owner (1 round).  An owner stacks all
       its phase-``j`` groups in one array build — each a
       ``(d-j)``-dimensional range tree on ``n/p`` points, its index in
       the stack the element's name at the owner.  Each record also
       fans out one new record per internal hat ancestor of its group's
       leaf: the input of phase ``j+1`` (the descendant trees those
       ancestors anchor).

finale
    5. **Broadcast** every element's :class:`ForestRootInfo` (1 round);
       every processor then emits the identical hat columns locally
       (:meth:`repro.dist.hat.Hat.build`) with zero further rounds.

The round count is ``7d + 1`` — fixed by ``d`` alone, never by ``n``,
which is exactly what the Corollary 1 tests measure.

SPMD residency: the per-rank steps run as registered phases
(``dist.construct.*``), and what they build *stays with the executor* —
the forest group, one stack per dimension, under the ``{ns}:forest``
state key, the hat replica under ``{ns}:hat``.  Only records (S-record
batches, root infos) and numpy rank blocks ever cross the driver/worker
boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence

import numpy as np

from .._util import ilog2, require_power_of_two
from ..cgm.collectives import allgather, alltoall_broadcast, route_batches
from ..cgm.columns import RecordBatch, encode_keys, obj_col
from ..cgm.machine import Machine
from ..cgm.phases import ProcContext, register_phase
from ..cgm.sort import sample_sort_cols
from ..errors import MachineError
from ..geometry.rankspace import RankedPointSet
from ..semigroup import Semigroup
from ..semigroup.kernels import KernelColumn
from .forest import build_stack
from .hat import Hat
from .labeling import (
    hat_ancestor_paths,
    leaf_index,
    make_path,
    root_index_of_tree,
    root_level_of_tree,
)
from .records import ForestRootInfo, flatten_path, unflatten_path

__all__ = ["ConstructResult", "construct_distributed_tree"]


def forest_key(ns: str) -> str:
    """State key of a tree's rank-resident forest group (``{j: stack}``)."""
    return f"{ns}:forest"


def hat_key(ns: str) -> str:
    """State key of a tree's rank-resident hat replica."""
    return f"{ns}:hat"


@dataclass
class ConstructResult:
    """Everything Algorithm Construct leaves behind.

    ``forest_store[r]`` is processor ``r``'s group ``F_r`` of Theorem 1:
    ``{j: stack}``, its phase-``j`` elements as one
    :class:`~repro.seq.compiled.CompiledForest` (the hat leaf naming an
    element holds its tree index) — on in-process backends these
    are the *live* rank-resident stores, on the process backend a lazy
    fetched copy; ``roots`` is the broadcast root set every processor
    saw; ``phase_record_counts[j]`` the number of records phase ``j``
    sorted (the §6 caveat's measurement).  ``ns`` names the machine
    state namespace the structure is resident under.
    """

    hat: Hat
    forest_store: Sequence[dict]
    roots: List[ForestRootInfo]
    phase_record_counts: List[int]
    p: int
    ns: str

    def forest_group_sizes(self) -> List[int]:
        """Points held per processor's forest group (Theorem 1(ii) balance)."""
        return [
            sum(len(stack.pids) for stack in store.values()) for store in self.forest_store
        ]


@register_phase("dist.construct.build_hat")
def _phase_build_hat(ctx: ProcContext, payload) -> "Hat | None":
    """Construct step 5 finale: every rank emits the identical hat.

    The hat — its columns, the only form it has — stays rank-resident
    under ``{ns}:hat``; only rank 0 returns its copy (the driver's
    introspection handle) to keep the result round cheap on the process
    backend.
    """
    roots, d, n, p, semigroup, ns = payload
    hat = Hat.build(roots, d=d, n=n, p=p, semigroup=semigroup)
    ctx.charge(hat.size_nodes())
    ctx.state[hat_key(ns)] = hat
    return hat if ctx.rank == 0 else None


# ---------------------------------------------------------------------------
# S-record traffic as column packs
# ---------------------------------------------------------------------------
def _empty_srecord_batch(d: int, tid_width: int, value_col=None) -> RecordBatch:
    """Zero-row ``dist.srecord`` batch; ``value_col`` shapes the value column
    (an empty :class:`KernelColumn` for kernelized values, so cross-rank
    concatenation keeps one schema)."""
    if value_col is None:
        value_col = np.empty(0, dtype=object)
    return RecordBatch(
        "dist.srecord",
        {
            "tree_id": np.empty((0, tid_width), dtype=np.int64),
            "ranks": np.empty((0, d), dtype=np.int64),
            "pid": np.empty(0, dtype=np.int64),
            "value": value_col,
        },
        0,
    )


@register_phase("dist.construct.scatter_cols")
def _phase_scatter_cols(ctx: ProcContext, payload) -> RecordBatch:
    """Initial distribution: this rank's block of points as one batch.

    ``values`` arrives either as a plain list (a semigroup without a
    kernel) or as a pre-encoded :class:`KernelColumn` slice (the driver
    encodes once, so typed value traffic starts at the very first round).
    """
    rank_rows, ids, values = payload
    n = len(ids)
    ctx.charge(n)
    value_col = (
        values if isinstance(values, KernelColumn) else obj_col(list(values))
    )
    return RecordBatch(
        "dist.srecord",
        {
            "tree_id": np.empty((n, 0), dtype=np.int64),
            "ranks": np.ascontiguousarray(rank_rows, dtype=np.int64),
            "pid": np.asarray(ids, dtype=np.int64),
            "value": value_col,
        },
        n,
    )


@register_phase("dist.construct.build_elements_cols")
def _phase_build_elements_cols(ctx: ProcContext, payload) -> dict:
    """Construct step 3-4: stack the owned forest elements, fan out phase j+1.

    The rank's phase-``j`` elements land in the rank-resident
    ``{ns}:forest`` store as one stack (:func:`~repro.dist.forest.build_stack`)
    under key ``j``; only the broadcastable root infos, the next phase's
    records, and the held record count (for the driver's capacity check)
    are returned.

    The inbox batch arrives in ascending global (rank) order — the sort
    plus the deterministic source-ordered merge guarantee it — so each
    forest group is one contiguous run of ``n/p`` rows, and its index
    among the rank's groups is its tree index in the stack.  The phase
    ``j+1`` fan-out is pure array ops: ``np.repeat`` the point columns
    per hat ancestor, ``np.tile`` the ancestor paths.
    """
    batch: RecordBatch = payload["inbox"]
    j = payload["j"]
    logn = payload["logn"]
    leaf_level = payload["leaf_level"]
    d = payload["d"]
    ns = payload["ns"]

    r = ctx.rank
    stored_key = f"{ns}:stored_records"
    roots: List[ForestRootInfo] = []

    n = len(batch)
    k = 1 << leaf_level  # rows per group
    leaf_mcol = np.asarray(batch.col("__leaf_m"))
    tid_mat = batch.col("tree_id")
    ranks = batch.col("ranks")
    pids = batch.col("pid")
    values = batch.col("value")
    kernel_values = isinstance(values, KernelColumn)

    next_tid: List[np.ndarray] = []
    next_ranks: List[np.ndarray] = []
    next_pid: List[np.ndarray] = []
    next_val: List[Any] = []

    if n:
        stack = build_stack(ranks, pids, values, payload["semigroup"], j, k)
        ctx.state.setdefault(forest_key(ns), {})[j] = stack
        ctx.state[stored_key] = ctx.state.get(stored_key, 0) + stack.size_records
        ctx.charge(stack.size_records)
        aggs = stack.root_aggs()

    for t, s in enumerate(range(0, n, k)):
        e = s + k
        tree_id = unflatten_path(tid_mat[s])
        root_lvl = root_level_of_tree(tree_id, primary_height=logn)
        idx = leaf_index(root_index_of_tree(tree_id), root_lvl, leaf_level, int(leaf_mcol[s]))
        seg = (int(ranks[s, j]), int(ranks[e - 1, j]))
        roots.append(
            ForestRootInfo(make_path(idx, leaf_level, tree_id), j, seg, k, r, t, aggs[t])
        )
        if j < d - 1:
            ancs = list(hat_ancestor_paths(idx, leaf_level, root_lvl, tree_id))
            if ancs:
                anc_mat = np.asarray(
                    [flatten_path(a) for a in ancs], dtype=np.int64
                )
                # per member, one record per ancestor (member-major order)
                next_tid.append(np.tile(anc_mat, (k, 1)))
                next_ranks.append(np.repeat(ranks[s:e], len(ancs), axis=0))
                next_pid.append(np.repeat(pids[s:e], len(ancs)))
                next_val.append(
                    values[s:e].repeat(len(ancs))
                    if kernel_values
                    else np.repeat(values[s:e], len(ancs))
                )
            ctx.charge(k)

    if next_tid:
        next_batch = RecordBatch(
            "dist.srecord",
            {
                "tree_id": np.vstack(next_tid),
                "ranks": np.vstack(next_ranks),
                "pid": np.concatenate(next_pid),
                "value": KernelColumn.concat(next_val)
                if kernel_values
                else np.concatenate(next_val),
            },
        )
    else:
        next_batch = _empty_srecord_batch(
            d,
            2 * (j + 1),
            value_col=values.islice(0, 0) if kernel_values else None,
        )
    held = ctx.state.get(stored_key, 0) + len(next_batch)
    return {"roots": roots, "next_records": next_batch, "held": held}


def _tree_id_encoding(b: RecordBatch) -> np.ndarray:
    """Big-endian encoding of a batch's tree-id columns, cache-aware.

    The phase sort already encoded ``(tree_id cols, rank_j, src, idx)``
    into the retained ``__key`` column, and :func:`encode_keys` biases
    each column independently — so the tree-id encoding is exactly the
    key's leading bytes.  When the cached key rides the batch
    (``sample_sort_cols(..., keep_key=True)``), the prefix view replaces
    a full re-encode of the unchanged key columns; the fallback encodes
    from scratch (bit-identical by construction, property-tested).
    """
    n = len(b)
    mat = b.col("tree_id")
    w = mat.shape[1]
    key = b.cols.get("__key")
    if key is not None and n and key.dtype.itemsize >= 8 * w:
        if w == 0:
            return np.zeros(n, dtype="S1")
        prefix = np.ascontiguousarray(
            key.view("u1").reshape(n, key.dtype.itemsize)[:, : 8 * w]
        )
        return prefix.view(f"S{8 * w}").reshape(n)
    return encode_keys([mat[:, c] for c in range(w)], n)


def _in_tree_positions_cols(
    mach: Machine, batches: Sequence[RecordBatch], label: str
) -> List[np.ndarray]:
    """Step 2a: 1-based rank of every record inside its tree.

    A ``(tree_id, 1)`` segmented prefix sum over batches: one
    all-gather of per-rank run summaries (same round, same label), then
    pure array arithmetic for the within-run positions and the carry
    into each rank's first run.
    """
    p = mach.p
    encs: List[np.ndarray] = []
    summaries: List[tuple] = []
    for r in range(p):
        b = batches[r]
        n = len(b)
        enc = _tree_id_encoding(b)
        encs.append(enc)
        if n:
            diff = np.nonzero(enc[:-1] != enc[1:])[0]
            last_run = n if len(diff) == 0 else n - int(diff[-1]) - 1
            summaries.append(
                (True, bytes(enc[0]), bytes(enc[-1]), last_run, len(diff) == 0)
            )
        else:
            summaries.append((False, None, None, 0, True))
    info = allgather(mach, summaries, label=label)[0]

    out: List[np.ndarray] = []
    for r in range(p):
        enc = encs[r]
        n = len(enc)
        if n == 0:
            out.append(np.empty(0, dtype=np.int64))
            continue
        idxs = np.arange(n, dtype=np.int64)
        boundary = np.empty(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = enc[1:] != enc[:-1]
        run_start = np.maximum.accumulate(np.where(boundary, idxs, 0))
        pos = idxs - run_start + 1
        # carry into the first run from left neighbours ending in the same tree
        first = bytes(enc[0])
        carry = 0
        q = r - 1
        while q >= 0:
            nonempty, _f, l_enc, l_run, single = info[q]
            if not nonempty:
                q -= 1
                continue
            if l_enc != first:
                break
            carry += l_run
            if not single:
                break
            q -= 1
        if carry:
            later = np.nonzero(boundary[1:])[0]
            first_run_len = int(later[0]) + 1 if len(later) else n
            pos[:first_run_len] += carry
        out.append(pos)
    return out


def construct_distributed_tree(
    mach: Machine,
    ranked: RankedPointSet,
    values: Sequence[Any],
    semigroup: Semigroup,
) -> ConstructResult:
    """Run Algorithm Construct on ``mach`` (§5, Theorem 2).

    ``ranked`` must be power-of-two padded with ``n >= p``;``values`` are
    the lifted semigroup values aligned with its rows (identity for
    sentinels).  Raises :class:`~repro.errors.MachineError` when ``p``
    exceeds the padded point count and
    :class:`~repro.errors.PowerOfTwoError` for a non-power-of-two ``p``.
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
    if len(values) != n:
        raise MachineError(f"need one lifted value per row ({n}), got {len(values)}")

    d = ranked.dim
    logn = ilog2(n)
    leaf_level = logn - ilog2(p)  # the Definition 3 cut
    k = n // p  # records per forest group
    ns = mach.new_ns("tree")

    # Initial distribution: block of n/p point records per processor (the
    # CGM input convention; a local-computation step, no round).  A
    # kernelized semigroup's values ship as per-rank slices of one typed
    # column (a plain list from a low-level caller is encoded here);
    # workers follow the representation that arrives.
    if semigroup.kernel is not None and not isinstance(values, KernelColumn):
        values = KernelColumn.from_values(semigroup.kernel, values)
    current = mach.run_phase(
        "construct:scatter-points",
        "dist.construct.scatter_cols",
        [
            (
                ranked.ranks[r * k : (r + 1) * k],
                ranked.ids[r * k : (r + 1) * k],
                values[r * k : (r + 1) * k],
            )
            for r in range(p)
        ],
    )

    roots_local: List[List[ForestRootInfo]] = [[] for _ in range(p)]
    phase_counts: List[int] = []
    group_base = 0

    for j in range(d):
        label = f"construct:phase{j}"
        phase_counts.append(sum(len(box) for box in current))

        # -- step 1: the black-box CGM sort --------------------------------
        # keep_key retains the encoded sort key so step 2 reuses its
        # tree-id prefix instead of re-encoding unchanged key columns.
        current = sample_sort_cols(
            mach,
            current,
            keyspec=("tree_id", ("ranks", j)),
            label=f"{label}:sort",
            keep_key=True,
        )

        # -- step 2: name positions (within tree + global) -----------------
        in_tree = _in_tree_positions_cols(
            mach, current, label=f"{label}:tree-rank"
        )
        all_counts = allgather(
            mach, [len(b) for b in current], label=f"{label}:positions"
        )[0]
        ngroups = sum(all_counts) // k

        # -- step 3: route groups to their owners (group g -> g mod p) -----
        tagged_cols: List[Any] = []
        dests: List[np.ndarray] = []
        base = 0
        for r in range(p):
            n_r = len(current[r])
            g = (base + np.arange(n_r, dtype=np.int64)) // k
            leaf_m = (
                (in_tree[r] - 1) // k
                if n_r
                else np.empty(0, dtype=np.int64)
            )
            # the cached sort key is spent: drop it before routing so
            # the route-groups round ships only record columns
            tagged_cols.append(current[r].drop("__key").with_col("__leaf_m", leaf_m))
            dests.append((group_base + g) % p)
            base += all_counts[r]
        inboxes = route_batches(
            mach,
            tagged_cols,
            dests,
            label=f"{label}:route-groups",
            template=tagged_cols[0].islice(0, 0),
        )

        # -- step 4: stack the elements + fan out next-phase records locally -
        built = mach.run_phase(
            f"{label}:build-elements",
            "dist.construct.build_elements_cols",
            [
                {
                    "inbox": inboxes[r],
                    "j": j,
                    "logn": logn,
                    "leaf_level": leaf_level,
                    "d": d,
                    "semigroup": semigroup,
                    "ns": ns,
                }
                for r in range(p)
            ],
        )
        for r in range(p):
            roots_local[r].extend(built[r]["roots"])
            mach.check_capacity(r, built[r]["held"])
        group_base += ngroups
        current = [built[r]["next_records"] for r in range(p)]

    # -- step 5: broadcast forest roots; rebuild the identical hat locally --
    gathered = alltoall_broadcast(mach, roots_local, label="construct:roots")

    hats = mach.run_phase(
        "construct:build-hat",
        "dist.construct.build_hat",
        [(gathered[r], d, n, p, semigroup, ns) for r in range(p)],
    )
    hat = hats[0]
    if mach.backend.in_process:
        # One shared replica (rank 0's) preserves the pre-SPMD aliasing
        # semantics: driver-side mutations of ``tree.hat`` are what every
        # virtual processor walks, and memory stays O(|hat|), not O(p|hat|).
        mach.seed_state(hat_key(ns), [hat] * p)

    return ConstructResult(
        hat=hat,
        forest_store=mach.state_view(forest_key(ns), default=dict),
        roots=list(gathered[0]),
        phase_record_counts=phase_counts,
        p=p,
        ns=ns,
    )
