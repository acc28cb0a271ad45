"""Shared test helpers (query generators, two tiny compute phases, the
object references the arrays are pinned against, the dynamic stream
harness, and a serve worker held inside its pass)."""

from __future__ import annotations

import asyncio
import dataclasses
import threading
from typing import Any, Callable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.cgm import register_phase
from repro.dist.records import KIND_EXPAND, KIND_SUBQUERY
from repro.errors import DimensionMismatch, GeometryError, ReproError
from repro.geometry import Box, RankBox
from repro.geometry.box import _stack
from repro.query import (
    QueryBatch,
    aggregate,
    count,
    report,
    sample_report,
    top_k,
)
from repro.semigroup import (
    KernelColumn,
    ProductSemigroup,
    Semigroup,
    product_semigroup,
)
from repro.semigroup.group import sum_group
from repro.seq.segment_tree import SegTree, WalkStats
from repro.serve import QueryService


@register_phase("test.echo")
def _phase_echo(ctx, payload):
    """Who am I: ``(rank, p)`` — also the no-op phase when the result is unused."""
    return ctx.rank, ctx.p


@register_phase("test.charge")
def _phase_charge(ctx, payload):
    """Charge ``payload`` abstract ops to this rank."""
    ctx.charge(payload)


@register_phase("test.hat_shape")
def _phase_hat_shape(ctx, ns):
    """Whether this rank's hat of tree ``ns`` holds this process's memo of
    its shape, and that shape's labels as bytes."""
    from repro.dist.construct import hat_key
    from repro.dist.hat import hat_shape

    shape = ctx.state[hat_key(ns)].shape
    return shape is hat_shape(shape.p, shape.d), shape.paths.tobytes()


@register_phase("test.bump_hat")
def _phase_bump_hat(ctx, payload):
    """Add one to row 0's aggregate in rank ``target``'s own hat replica
    of tree ``ns`` (one corrupt replica among equal ones)."""
    from repro.dist.construct import hat_key

    ns, target = payload
    if ctx.rank == target:
        ctx.state[hat_key(ns)].aggs.data[0] += 1


@register_phase("test.state_keys")
def _phase_state_keys(ctx, payload):
    """The keys this rank's state holds, sorted."""
    return sorted(ctx.state)


def random_boxes(rng: np.random.Generator, m: int, d: int, max_side: float = 0.5) -> list[Box]:
    """Random closed boxes in the unit cube with random side lengths."""
    out = []
    for _ in range(m):
        lo = rng.uniform(0.0, 1.0, size=d)
        side = rng.uniform(0.0, max_side, size=d)
        out.append(Box([(float(l), float(min(1.0, l + s))) for l, s in zip(lo, side)]))
    return out


def grid_of_boxes(d: int, per_dim: int = 3) -> list[Box]:
    """A deterministic small grid of query boxes covering the unit cube."""
    cuts = np.linspace(0.0, 1.0, per_dim + 1)
    boxes = []
    boxes.append(Box([(0.0, 1.0)] * d))
    for j in range(d):
        for k in range(per_dim):
            bounds = [(0.0, 1.0)] * d
            bounds[j] = (float(cuts[k]), float(cuts[k + 1]))
            boxes.append(Box(bounds))
    return boxes


def unkernelized(sg: Semigroup) -> Semigroup:
    """``sg`` without its typed kernel: same name, same functions, same
    values, resolved to an :class:`~repro.semigroup.kernels.ObjectKernel`
    — so a builtin's answers can be compared between typed kernel
    columns and object columns + ``combine`` without any switch.
    Products drop it component by component; a group keeps its
    inverse."""
    if isinstance(sg, ProductSemigroup):
        return product_semigroup([unkernelized(c) for c in sg.components])
    return dataclasses.replace(sg, kernel=None)


def forest_elements(tree) -> list:
    """Every forest element of a built tree, read off its hat leaves:
    ``(leaf, stack, t)`` — the leaf's hat row, its owner's stack for the
    leaf's dimension, and the element's tree index in that stack."""
    shape = tree.hat.shape
    return [
        (leaf, tree.forest_store[shape.location[leaf]][shape.dim[leaf]], int(shape.tree[leaf]))
        for leaf in np.flatnonzero(shape.leaf).tolist()
    ]


def element_pids(stack, t: int) -> np.ndarray:
    """The point ids of tree ``t`` of ``stack``, in its row order."""
    return stack.pids[t * stack.width : (t + 1) * stack.width]


def last_dim_nodes(stack, t: int | None = None) -> list:
    """Every last-dimension node of tree ``t`` of ``stack`` (of every
    tree when ``None``) in emission order, as ``(off, width, row)``: its
    ``row_block`` slice and its ``aggs`` row.

    The trees come by start (each key block lays them out in emission
    order), each in preorder.  A width-``w`` tree starting at ``start``
    is a subtree of the heap over its aligned width-``m`` block: its root
    is heap index ``(m + start % m) / w`` there, its depth-``l`` node
    ``k`` heap index ``root · 2^l + k``, and block ``b``'s heap fills
    ``aggs`` rows ``2m·b .. 2m·(b + 1) − 1``.
    """
    m, per_tree = stack.width, len(stack.row_block) // stack.shape[0]
    trees = sorted(
        (int(s), w) for w, (starts, _parent) in stack.layout()[-1].items() for s in starts[:, 0]
    )
    out = []

    def preorder(w: int, start: int, root: int, level: int = 0, k: int = 0) -> None:
        width = w >> level
        out.append((start + k * width, width, 2 * m * (start // m) + (root << level) + k))
        if width > 1:
            preorder(w, start, root, level + 1, 2 * k)
            preorder(w, start, root, level + 1, 2 * k + 1)

    for start, w in trees:
        if t is None or start // per_tree == t:
            preorder(w, start, (m + start % m) // w)
    return out


# ---------------------------------------------------------------------------
# object references: the range tree and the hat walk, one query at a time
# ---------------------------------------------------------------------------
def rank_bounds(boxes: Sequence[RankBox]) -> tuple[np.ndarray, np.ndarray]:
    """:class:`RankBox` objects stacked into the int64 ``(m, d)`` pair
    ``(los, his)`` — the form :meth:`RankSpace.to_rank_bounds
    <repro.geometry.rankspace.RankSpace.to_rank_bounds>` produces and
    every batched walk takes (the references take boxes one at a time)."""
    return (
        _stack([b.los for b in boxes], np.int64, "rank box"),
        _stack([b.his for b in boxes], np.int64, "rank box"),
    )


class DimTree:
    """One segment tree of the range tree, dividing dimension ``dim``.

    Holds the point rows in rank order of its dimension, the implicit
    segment tree over their ranks, and either per-node descendant trees
    (``dim < last``) or per-node aggregate values (``dim == last``).
    """

    __slots__ = ("dim", "seg", "order", "descendants", "aggs")

    def __init__(
        self,
        dim: int,
        seg: SegTree,
        order: np.ndarray,
        descendants: list["DimTree"] | None,
        aggs: list[Any] | None,
    ) -> None:
        self.dim = dim
        self.seg = seg
        self.order = order
        self.descendants = descendants
        self.aggs = aggs

    def rows_under(self, node: int) -> np.ndarray:
        """Point rows (global row indices) below a node of this tree."""
        s, e = self.seg.slice_of(node)
        return self.order[s:e]


class CanonicalSelection:
    """A dimension-d canonical node selected by a query.

    ``tree`` is the last-dimension :class:`DimTree` containing the node and
    ``node`` its heap id; the selection's answer set is exactly the leaves
    below it.
    """

    __slots__ = ("tree", "node")

    def __init__(self, tree: DimTree, node: int) -> None:
        self.tree = tree
        self.node = node

    @property
    def leaf_count(self) -> int:
        # width of the node's slice: m >> depth, no slice round-trip
        return self.tree.seg.m >> (self.node.bit_length() - 1)

    def rows(self) -> np.ndarray:
        return self.tree.rows_under(self.node)

    def agg(self) -> Any:
        assert self.tree.aggs is not None
        return self.tree.aggs[self.node]


class RangeTree:
    """Rank-space range tree (Definition 1) as explicit objects over the
    rows of a global rank table: one :class:`DimTree` per segment tree,
    aggregates as the semigroup's own Python values, walked one query at
    a time — the reference the shipped arrays
    (:class:`~repro.seq.compiled.CompiledForest`) are pinned against.

    Parameters
    ----------
    ranks:
        ``(N, d)`` global rank table (each column a permutation-unique
        integer key); ``N`` must be a power of two.
    values:
        Sequence of length ``N``: the lifted semigroup value of each row
        (identity for padding sentinels).
    semigroup:
        Supplies ``combine``/``identity`` for aggregate maintenance.
    start_dim:
        First dimension this tree divides; the tree spans dimensions
        ``start_dim .. d-1`` (a ``(d - start_dim)``-dimensional range tree,
        matching forest elements "of dimension j <= d").
    """

    __slots__ = (
        "ranks",
        "values",
        "semigroup",
        "start_dim",
        "d",
        "root_tree",
        "stats",
    )

    def __init__(
        self,
        ranks: np.ndarray,
        values: Sequence[Any],
        semigroup: Semigroup,
        start_dim: int = 0,
        stats: WalkStats | None = None,
    ) -> None:
        ranks = np.asarray(ranks, dtype=np.int64)
        if ranks.ndim != 2:
            raise GeometryError("ranks must be an (N, d) array")
        self.ranks = ranks
        self.values = values
        self.semigroup = semigroup
        self.d = int(ranks.shape[1])
        if not 0 <= start_dim < self.d:
            raise DimensionMismatch(self.d, start_dim, "start dimension")
        self.start_dim = start_dim
        self.stats = stats if stats is not None else WalkStats()
        self.root_tree = self._build(
            np.arange(ranks.shape[0], dtype=np.int64), start_dim
        )

    # construction (the classical bottom-up sequential algorithm)
    def _build(self, rows: np.ndarray, dim: int) -> DimTree:
        order = rows[np.argsort(self.ranks[rows, dim], kind="stable")]
        seg = SegTree(self.ranks[order, dim])
        if dim == self.d - 1:
            return DimTree(dim, seg, order, None, self._build_aggs(seg, order))
        m = seg.m
        descendants: list[DimTree | None] = [None] * (2 * m)
        for node in range(2 * m - 1, 0, -1):
            s, e = seg.slice_of(node)
            descendants[node] = self._build(order[s:e], dim + 1)
        return DimTree(dim, seg, order, descendants, None)  # type: ignore[arg-type]

    def _build_aggs(self, seg: SegTree, order: np.ndarray) -> list[Any]:
        combine = self.semigroup.combine
        values = self.values
        m = seg.m
        aggs: list[Any] = [None] * (2 * m)
        for k in range(m):
            aggs[m + k] = values[order[k]]
        for node in range(m - 1, 0, -1):
            aggs[node] = combine(aggs[2 * node], aggs[2 * node + 1])
        return aggs

    # queries
    def _check_box(self, box: RankBox) -> None:
        if box.dim != self.d:
            raise DimensionMismatch(self.d, box.dim, "rank box")

    def canonical(
        self, box: RankBox, stats: WalkStats | None = None
    ) -> list[CanonicalSelection]:
        """The selected dimension-d segment-tree nodes for ``box``.

        This is the output of the paper's Algorithm Search restricted to
        one query: the ``O(log^d n)`` maximal last-dimension nodes whose
        leaves are exactly the points in the query domain.

        ``stats`` overrides the tree's shared counter for this call.
        """
        self._check_box(box)
        st = stats if stats is not None else self.stats
        if box.is_empty():
            return []
        out: list[CanonicalSelection] = []
        self._canonical_rec(self.root_tree, box, out, st)
        st.nodes_selected += len(out)
        return out

    def _canonical_rec(
        self,
        tree: DimTree,
        box: RankBox,
        out: list[CanonicalSelection],
        st: WalkStats,
    ) -> None:
        a, b = box.interval(tree.dim)
        nodes, visited = tree.seg.decompose_counted(a, b)
        st.nodes_visited += visited
        if tree.dim == self.d - 1:
            out.extend(CanonicalSelection(tree, node) for node in nodes)
            return
        assert tree.descendants is not None
        for node in nodes:
            self._canonical_rec(tree.descendants[node], box, out, st)

    def aggregate(self, box: RankBox, stats: WalkStats | None = None) -> Any:
        """Associative-function mode: fold ``f`` over the selection."""
        sel = self.canonical(box, stats)
        return self.semigroup.fold(s.agg() for s in sel)

    def report(self, box: RankBox, stats: WalkStats | None = None) -> np.ndarray:
        """Report mode: the global row indices inside the box (unsorted)."""
        st = stats if stats is not None else self.stats
        sel = self.canonical(box, st)
        if not sel:
            return np.empty(0, dtype=np.int64)
        parts = [s.rows() for s in sel]
        rows = np.concatenate(parts)
        st.points_reported += int(rows.shape[0])
        return rows

    def count(self, box: RankBox, stats: WalkStats | None = None) -> int:
        """Number of points in the box (works for any semigroup: uses leaf counts)."""
        return sum(s.leaf_count for s in self.canonical(box, stats))

    # sizes (Theorem 1)
    def space_nodes(self) -> int:
        """Total segment-tree node count (the ``s`` of the paper)."""
        return sum(2 * t.seg.m - 1 for t in self.iter_dim_trees())

    def iter_dim_trees(self) -> Iterator[DimTree]:
        stack = [self.root_tree]
        while stack:
            t = stack.pop()
            yield t
            if t.descendants is not None:
                stack.extend(c for c in t.descendants[1:] if c is not None)


def hat_walk(
    hat,
    qid: int,
    box: RankBox,
    report: bool = False,
    charge: Callable[[int], None] | None = None,
) -> Tuple[List[tuple], List[tuple], List[tuple]]:
    """Walk ``hat`` for one rank-space query (§4's four cases), one node
    at a time — the reference :func:`repro.dist.hat.walk_hats` is pinned
    against.

    Returns ``(selections, subqueries, expansions)`` as the rows
    ``walk_hats`` packs: ``(qid, node, nleaves, agg)`` per
    dimension-``d`` node inside the query, ``(KIND_SUBQUERY, qid, los,
    his, element, location)`` per hat leaf reached, and — with
    ``report`` — ``(KIND_EXPAND, qid, zeros, zeros, element,
    location)`` per forest element tiling a selection.  ``charge`` (if
    given) receives the nodes visited, Theorem 3's O(log^d p) term.
    """
    sels: List[tuple] = []
    subqs: List[tuple] = []
    exps: List[tuple] = []
    if box.is_empty():
        return sels, subqs, exps
    shape = hat.shape
    zeros = (0,) * shape.d
    visited = 0
    stack = [0]
    while stack:
        i = stack.pop()
        visited += 1
        a, b = box.interval(int(shape.dim[i]))
        v_lo, v_hi = int(hat.lo[i]), int(hat.hi[i])
        if b < v_lo or v_hi < a:
            continue  # die
        selected = a <= v_lo and v_hi <= b
        if selected and shape.last_dim[i]:
            sels.append((qid, i, int(hat.nleaves[i]), hat.agg(i)))
            if report:
                off = int(shape.tile_off[i])
                for l in shape.tile_leaf_ids[off : off + int(shape.tile_len[i])].tolist():
                    exps.append((KIND_EXPAND, qid, zeros, zeros, l, int(shape.location[l])))
        elif shape.leaf[i]:  # continue inside the forest element
            subqs.append((KIND_SUBQUERY, qid, box.los, box.his, i, int(shape.location[i])))
        elif selected:  # off the last dimension: descend
            stack.append(int(shape.desc[i]))
        else:  # split
            stack.append(int(shape.right[i]))
            stack.append(int(shape.left[i]))
    if charge is not None:
        charge(visited)
    return sels, subqs, exps


def reference_tree(tree, leaf: int) -> RangeTree:
    """The object-tree oracle of the forest element at hat leaf ``leaf``:
    the sequential :class:`RangeTree` over its points in its stack's row
    order (local row ``i`` is stack row ``t·width + i``) — rank rows
    looked up by id in the tree's own point set, values lifted afresh
    under the tree's annotation, nothing read off the stack but ids."""
    from repro.dist import lift_values

    shape = tree.hat.shape
    stack = tree.forest_store[shape.location[leaf]][shape.dim[leaf]]
    pids = element_pids(stack, int(shape.tree[leaf]))
    order = np.argsort(tree.ranked.ids)
    rows = order[np.searchsorted(tree.ranked.ids, pids, sorter=order)]
    values = lift_values(tree.semigroup, tree.ranked, tree.points)[rows]
    values = values.to_list() if isinstance(values, KernelColumn) else list(values)
    start_dim = int(shape.dim[leaf])
    return RangeTree(tree.ranked.ranks[rows], values, tree.semigroup, start_dim=start_dim)


def seq_reference(t) -> RangeTree:
    """The object-tree reference of a ``SequentialRangeTree`` ``t``: the
    :class:`RangeTree` over its padded rank table, values lifted afresh
    point by point through the semigroup's ``lift`` (identity on the
    sentinel rows), nothing read off ``t.forest``."""
    sg, pts = t.semigroup, t.points
    values = [sg.lift(int(pid), row) for pid, row in zip(pts.ids, pts.coords)]
    values += [sg.identity] * (t.n - pts.n)
    return RangeTree(t.ranked.ranks, values, sg)


def corrupt_shape(hat, column: str, edit) -> None:
    """Bind ``hat`` a copy of its shape whose ``column`` is ``edit`` of a
    writable copy of it: the shared shape is read-only, and corrupting it
    in place would poison every later tree on ``(p, d)``."""
    shape = hat.shape
    hat.shape = type(shape)(**{**vars(shape), column: edit(getattr(shape, column).copy())})


def search_summary(tree, boxes, replication: str = "doubling", report=False) -> tuple:
    """One ``tree.search`` pass: ``(metrics, counts, selections)`` — its
    steps, the per-query counts summed over its hat and forest selections,
    and every selection and report pair as a sorted list (a multiset:
    which copy of a group serves a subquery is the strategy's choice, not
    the answer)."""
    out = tree.search(boxes, report=report, replication=replication)
    m = tree.metrics
    counts = np.zeros(len(boxes), dtype=np.int64)
    for b in (*out.hat_selections, *out.forest_selections):
        np.add.at(counts, b.col("qid"), b.col("nleaves"))
    rows = [
        (b.schema, *map(repr, row))
        for batches in (out.hat_selections, out.forest_selections, out.report_pairs)
        for b in batches
        for row in b
    ]
    return m, counts.tolist(), sorted(rows)


# ---------------------------------------------------------------------------
# stateful stream harness for the dynamization differential suite
# ---------------------------------------------------------------------------
#: the aggregate every stream checkpoint folds — an AbelianGroup, so it
#: stays legal under deletions; stream coordinates are dyadic rationals,
#: so its float sums are exact and order-independent (honest bit-identity)
STREAM_GROUP = sum_group(0)

_MODE_CYCLE = (
    lambda b, i: count(b),
    lambda b, i: report(b, limit=6),
    lambda b, i: aggregate(b),
    lambda b, i: top_k(b, 3),
    lambda b, i: sample_report(b, 4, seed=i),
)


def checkpoint_batch(boxes, offset: int = 0) -> QueryBatch:
    """A mixed-mode batch over ``boxes``, cycling all five output modes.

    ``offset`` rotates the cycle so successive checkpoints exercise every
    mode even with few boxes per checkpoint.
    """
    return QueryBatch(
        [
            _MODE_CYCLE[(i + offset) % len(_MODE_CYCLE)](b, offset)
            for i, b in enumerate(boxes)
        ]
    )


def oracle_values(oracle, batch: QueryBatch) -> list:
    """Answer ``batch`` with the sequential DynamicRangeTree oracle.

    Count/report/aggregate queries batch through the oracle's ``*_many``
    APIs — the sequential oracle still walks its buckets one by one, one
    compiled walk per bucket for the whole slice, where the distributed
    tree searches all its buckets in one pass — while the order-statistic
    modes (topk/sample) stay per-query; answers are positionally identical
    to a per-query loop either way.
    """
    by_mode: dict[str, list[int]] = {"count": [], "report": [], "aggregate": []}
    for i, q in enumerate(batch):
        if q.mode in by_mode:
            by_mode[q.mode].append(i)
        elif q.mode not in ("topk", "sample"):  # pragma: no cover
            raise AssertionError(f"oracle cannot answer mode {q.mode!r}")
    batched: dict[int, object] = {}
    queries = list(batch)
    if by_mode["count"]:
        idx = by_mode["count"]
        for i, v in zip(idx, oracle.count_many([queries[i].box for i in idx])):
            batched[i] = v
    if by_mode["report"]:
        idx = by_mode["report"]
        for i, ids in zip(
            idx, oracle.report_many([queries[i].box for i in idx])
        ):
            limit = queries[i].option("limit")
            batched[i] = ids if limit is None else ids[:limit]
    if by_mode["aggregate"]:
        idx = by_mode["aggregate"]
        for i, v in zip(
            idx, oracle.aggregate_many([queries[i].box for i in idx])
        ):
            batched[i] = v
    out = []
    for i, q in enumerate(queries):
        if i in batched:
            out.append(batched[i])
        elif q.mode == "topk":
            out.append(oracle.top_k(q.box, q.option("k"), q.option("dim", 0)))
        else:
            out.append(oracle.sample(q.box, q.option("k"), q.option("seed", 0)))
    return out


def empty_structure_values(batch: QueryBatch, base) -> list:
    """The expected answers of any structure holding zero live points."""
    out = []
    for q in batch:
        if q.mode == "count":
            out.append(0)
        elif q.mode == "aggregate":
            out.append((q.semigroup or base).identity)
        else:
            out.append([])
    return out


def rebuild_queries_dict(dyn, batch: QueryBatch) -> list:
    """``to_dict()["queries"]`` of a static tree rebuilt from scratch.

    Builds a fresh DistributedRangeTree over ``dyn.live_points()`` on the
    *same* machine and answers the same batch — the ground truth the
    logarithmic method must match bit for bit.
    """
    from repro.dist import DistributedRangeTree

    pts = dyn.live_points()
    if pts is None:
        values = empty_structure_values(batch, dyn.semigroup)
        return [
            {
                "qid": qid,
                "mode": q.mode,
                "box": [
                    [float(lo), float(hi)]
                    for lo, hi in zip(q.box.lo, q.box.hi)
                ],
                "value": v,
            }
            for qid, (q, v) in enumerate(zip(batch, values))
        ]
    with DistributedRangeTree.build(
        pts, machine=dyn.machine, semigroup=dyn.semigroup
    ) as static:
        return static.run(batch).to_dict()["queries"]


def drive_stream(ops, dyn, oracle, rebuild_every: int | None = None) -> int:
    """Replay a stream against the dynamic tree and the seq oracle.

    At every query checkpoint the dynamic structure's ``to_dict()``
    answers must equal the oracle's; every ``rebuild_every``-th
    checkpoint they must also equal a rebuild-from-scratch static tree's.
    Returns the number of checkpoints verified.
    """
    checkpoints = 0
    for op in ops:
        if op.kind == "insert":
            dyn.insert(op.coords, pid=op.pid)
            oracle.insert(op.coords, pid=op.pid)
        elif op.kind == "delete":
            if op.absent:
                for struct in (dyn, oracle):
                    try:
                        struct.delete(op.pid)
                    except ReproError:
                        continue
                    raise AssertionError(
                        f"delete of absent id {op.pid} was accepted"
                    )
            else:
                dyn.delete(op.pid)
                oracle.delete(op.pid)
        else:
            batch = checkpoint_batch(op.boxes, offset=checkpoints)
            got = dyn.run(batch).to_dict()["queries"]
            want = oracle_values(oracle, batch)
            assert [g["value"] for g in got] == want, (
                f"checkpoint {checkpoints}: dynamic tree diverges from the "
                f"sequential oracle"
            )
            if rebuild_every and checkpoints % rebuild_every == 0:
                assert got == rebuild_queries_dict(dyn, batch), (
                    f"checkpoint {checkpoints}: dynamic tree diverges from "
                    f"rebuild-from-scratch"
                )
            checkpoints += 1
    return checkpoints


class HeldWorker:
    """Hold every serve pass on its worker thread until :meth:`release`.

    An idle ``QueryService`` takes its backlog as a batch at once, so a
    test that needs requests to wait (a backlog that rides one batch, a
    deadline that fires behind a pass, a slot that stays taken) keeps
    the worker busy: :meth:`occupy` submits one query, whose pass then
    blocks here.
    Release in a ``finally``, or the service's close never returns.
    """

    def __init__(self, monkeypatch) -> None:
        self.gate = threading.Event()
        self.started: asyncio.Event | None = None
        real = QueryService._run_batch
        held = self

        def run_batch(svc, batch):
            # worker thread: an asyncio.Event is the loop's to set
            svc._loop.call_soon_threadsafe(held.started.set)
            held.gate.wait(30)
            return real(svc, batch)

        monkeypatch.setattr(QueryService, "_run_batch", run_batch)

    def arm(self) -> asyncio.Event:
        """The event the next held pass sets; make it on the test's loop."""
        self.started = asyncio.Event()
        return self.started

    async def occupy(self, svc, query) -> asyncio.Future:
        """Submit ``query`` and return once its pass holds the worker."""
        started = self.arm()
        future = svc.submit(query, deadline_ms=30_000.0)
        await started.wait()
        return future

    def release(self) -> None:
        self.gate.set()


async def until(cond, timeout_s: float = 10.0) -> None:
    """Yield to the loop until ``cond()`` holds (fail after ``timeout_s``)."""
    loop = asyncio.get_running_loop()
    stop = loop.time() + timeout_s
    while not cond():
        assert loop.time() < stop, "condition not reached"
        await asyncio.sleep(0.001)
