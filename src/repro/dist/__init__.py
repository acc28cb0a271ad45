"""The distributed d-dimensional range tree (Ferreira, Kenyon,
Rau-Chaplin & Ubeda, IPPS 1997).

This package is the paper's contribution: a CGM(s, p) range tree split
into a replicated **hat** (the top ``O(p log^{d-1} p)`` nodes of every
segment tree — §4, Definition 3, :mod:`repro.dist.hat`) and a
distributed **forest** of ``n/p``-point range trees, held per processor
as one array stack per dimension (Theorem 1, :mod:`repro.dist.forest`),
built in O(1) communication rounds per dimension (Theorem 2,
:mod:`repro.dist.construct`) and queried in
batches of ``m = O(n)`` with O(1) rounds per batch (Theorems 3-5,
:mod:`repro.dist.search` and :mod:`repro.query.engine`'s demux).

:class:`DistributedRangeTree` is the user-facing facade tying the layers
together; queries go through the unified :mod:`repro.query` layer::

    from repro import DistributedRangeTree
    from repro.query import count, report
    from repro.workloads import uniform_points, selectivity_queries

    tree = DistributedRangeTree.build(uniform_points(2048, 2, seed=0), p=8)
    rs = tree.run([count(b) for b in selectivity_queries(512, 2, seed=1)])
    counts = rs.values()
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

import numpy as np

from .._lazy import lazy_exports
from .._util import require_power_of_two
from ..cgm.columns import RecordBatch
from ..cgm.machine import Machine
from ..cgm.phases import ProcContext, register_host_phase, register_phase
from ..geometry.box import Box
from ..geometry.point import PointSet
from ..geometry.rankspace import RankedPointSet, pad_to_power_of_two
from ..semigroup import COUNT, NO_LAYERS, Semigroup, annotation_of
from ..semigroup.kernels import lift_kernel_column
from .construct import (
    ConstructResult,
    construct_distributed_tree,
    evict_tree,
    forest_key,
    hat_key,
)
from .hat import Hat, forest_roots
from .labeling import is_valid_path
from .search import SearchOutput, run_search

# The dynamization and the validator load on first access.  Every module
# that registers a phase (construct, search and its walks, this one) is
# imported above, so BOOTSTRAP_MODULES' closure still registers them in
# spawned workers.
_deferred, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".dynamic": ("DynamicDistributedRangeTree",),
        ".validate": ("ValidationReport", "validate_tree"),
    },
)

__all__ = [
    "DistributedRangeTree",
    "ConstructResult",
    "construct_distributed_tree",
    "Hat",
    "SearchOutput",
    "run_search",
    "is_valid_path",
    *_deferred,
]


def lift_values(semigroup: Semigroup, ranked: RankedPointSet, points: PointSet):
    """``f`` over every row of ``ranked``, identity on the sentinel rows:
    one column under the semigroup's kernel (a typed kernel lifts the
    whole coordinate matrix in a few array ops), what every refit ships.
    ``semigroup`` is an annotation
    (:func:`~repro.semigroup.annotation_of`): a count's is
    :data:`~repro.semigroup.NO_LAYERS`, whose column is zero wide.
    """
    return lift_kernel_column(semigroup.kernel, points.coords, ranked.n, points.ids)


@register_phase("dist.refit.relabel")
def _phase_refit_relabel(ctx: ProcContext, payload) -> RecordBatch:
    """Re-annotate this rank's resident stacks; return their roots as one
    ``dist.root`` batch (:func:`~repro.dist.hat.forest_roots`).

    ``by_rank[j]`` is :func:`lift_values`' column in dimension-``j``
    rank order, so a dimension-``j`` stack's fresh values are that
    column read at its rows' ranks
    (:meth:`~repro.seq.compiled.CompiledForest.row_ranks`) — one gather,
    whatever the point ids are.  That column becomes the tail of the
    stack's aggregate column, where its leaves are read.  The hat shape
    names the trees: tree ``t`` of the dimension-``j`` stack roots below
    hat leaf ``stack_rows(rank, j, trees)[t]``.
    """
    by_rank, semigroup, ns = payload
    hat = ctx.state[hat_key(ns)]
    roots = []
    for j, stack in ctx.state[forest_key(ns)].items():
        stack.annotate(by_rank[j][stack.row_ranks()], semigroup)
        rows = hat.shape.stack_rows(ctx.rank, j, stack.shape[0])
        roots.append(forest_roots(rows, hat.lo[rows], hat.hi[rows], stack.root_aggs()))
        ctx.charge(stack.size_records)
    return RecordBatch.concat(roots)


@register_host_phase("dist.refit.refresh_hat")
def _phase_refit_refresh(ctxs: Sequence[ProcContext], payloads) -> list:
    """Refresh every rank's own hat replica from the broadcast roots.

    A host folds once per distinct roots batch and semigroup (a
    broadcast delivers one to its whole block) and binds a copy of the
    result on each other rank (:meth:`~repro.dist.hat.Hat.copy_annotation`).
    The work is charged to rank 0 alone, as one refresh of the
    replicated hat.
    """
    folded: dict = {}
    for ctx, (roots, semigroup, ns) in zip(ctxs, payloads):
        hat = ctx.state[hat_key(ns)]
        source = folded.get((id(roots), id(semigroup)))
        if source is None:
            hat.refresh_aggregates(roots, semigroup)
            folded[id(roots), id(semigroup)] = hat
        else:
            hat.copy_annotation(source)
        if ctx.rank == 0:
            ctx.charge(hat.size_nodes())
    return [None] * len(ctxs)


class DistributedRangeTree:
    """Facade over the distributed range tree's full life cycle.

    Build with :meth:`build`; query by handing a (mixed-mode)
    :class:`~repro.query.QueryBatch` — or a plain list of
    :mod:`repro.query` descriptors — to :meth:`run`; change the
    aggregate function in place with :meth:`reannotate`; inspect the
    last operation's superstep trace through :attr:`metrics`.  All
    communication happens on the attached
    :class:`~repro.cgm.machine.Machine`, so every theorem-level claim
    (rounds, h-relations, per-processor work) is measurable.

    :attr:`base_semigroup` is the user-declared aggregate (``f``),
    :attr:`semigroup` the tree's *annotation*: always a
    :class:`~repro.semigroup.ProductSemigroup` whose components are the
    value layers its nodes store (:func:`~repro.semigroup.annotation_of`).
    A count is a node's width, so COUNT is never a layer — a
    COUNT-declared tree (the default) is annotated with
    :data:`~repro.semigroup.NO_LAYERS` and stores no aggregate column.
    The annotation gains layers when the query engine lazily refits the
    value semigroups a batch folds.
    """

    def __init__(
        self,
        points: PointSet,
        ranked: RankedPointSet,
        machine: Machine,
        semigroup: Semigroup,
        construct_result: ConstructResult,
        owns_machine: bool = False,
    ) -> None:
        self.points = points
        self.ranked = ranked
        self.machine = machine
        self.semigroup = NO_LAYERS  # Construct's topology holds no layer
        self.base_semigroup = semigroup
        self.construct_result = construct_result
        self.forest_store = construct_result.forest_store
        self._engine = None
        self._owns_machine = owns_machine
        self._closed = False

    # ------------------------------------------------------------------
    # construction (Algorithm Construct, Theorem 2)
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        points: "PointSet | Iterable[Sequence[float]]",
        p: int | None = None,
        machine: Machine | None = None,
        backend: str = "serial",
        semigroup: Semigroup = COUNT,
    ) -> "DistributedRangeTree":
        """Build the tree over ``points`` on ``p`` virtual processors.

        ``points`` may be a :class:`~repro.geometry.point.PointSet` or
        any plain coordinate collection it accepts — a list of tuples, a
        numpy ``(n, d)`` array — so the quickstart needs no workload
        helpers.  Pass an existing ``machine`` to reuse it (its ``p``
        wins); both paths require a power-of-two processor count.
        Points are rank-normalised and padded so that ``n`` is a power
        of two and ``n >= p`` (§3's "without loss of generality"
        assumptions).  Construct builds the topology alone; the
        annotation of ``semigroup`` is then applied by the refit every
        re-annotation takes (``annotate:*`` steps: one broadcast round) —
        nothing for COUNT, whose folds read node widths.  The values are
        lifted first, so a semigroup that cannot read the points raises
        before any rank is touched; a build that raises later leaves no
        rank state.
        """
        if not isinstance(points, PointSet):
            points = PointSet(points)
        owns_machine = machine is None
        if machine is None:
            if p is None:
                p = 4
            require_power_of_two("processor count p", p)
            machine = Machine(p, backend=backend)
        else:
            p = machine.p
            require_power_of_two("processor count p", p)
        ranked = pad_to_power_of_two(points, minimum=p)
        annotation = annotation_of(semigroup)
        values = lift_values(annotation, ranked, points)
        with machine.scope():
            result = construct_distributed_tree(machine, ranked)
            tree = cls(points, ranked, machine, semigroup, result, owns_machine=owns_machine)
            if annotation.components:
                try:
                    tree._relabel(values, annotation, "annotate")
                except BaseException:
                    tree.close()
                    raise
                tree.semigroup = annotation
        return tree

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Padded point count (the structural ``n = 2^k``)."""
        return self.ranked.n

    @property
    def dim(self) -> int:
        return self.ranked.dim

    @property
    def p(self) -> int:
        return self.machine.p

    @property
    def hat(self) -> Hat:
        """Rank 0's hat replica, read through the machine's state view."""
        return self.construct_result.hat

    @property
    def metrics(self):
        """The superstep trace (rounds, h-relations, work) of the last
        operation on the machine: a build, a pass or a refit."""
        return self.machine.last_metrics

    def space_report(self) -> dict:
        """Where the structure's records live (Theorem 1 observables)."""
        return {
            "n": self.n,
            "d": self.dim,
            "p": self.p,
            "hat_nodes": self.hat.size_nodes(),
            "hat_leaf_level": self.hat.leaf_level,
            "forest_group_sizes": self.construct_result.forest_group_sizes(),
            "forest_elements_per_proc": [
                sum(stack.shape[0] for stack in store.values())
                for store in self.forest_store
            ],
        }

    # ------------------------------------------------------------------
    # the unified query layer (Theorems 3-5 through repro.query)
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The :class:`~repro.query.QueryEngine` bound to this tree."""
        if self._engine is None:
            from ..query.engine import QueryEngine

            self._engine = QueryEngine(self)
        return self._engine

    def run(self, batch):
        """Answer a (mixed-mode) batch in one Algorithm Search pass.

        ``batch`` is a :class:`~repro.query.QueryBatch`, a sequence of
        :class:`~repro.query.Query` descriptors, or a single descriptor;
        returns a :class:`~repro.query.ResultSet` with answers in batch
        order plus the pass's superstep metrics.
        """
        return self.engine.run(batch)

    def search(
        self,
        boxes: Sequence[Box],
        report: "np.ndarray | bool" = False,
        replication: str = "doubling",
    ) -> SearchOutput:
        """Run Algorithm Search for a batch of real-coordinate boxes;
        ``report`` (one bool, or a mask over ``boxes``) marks the queries
        whose points the pass emits as ``(qid, pid)`` pairs."""
        with self.machine.scope():
            return run_search(
                self.machine,
                [(self.construct_result.ns, self.ranked.to_rank_bounds(*Box.stack(boxes)))],
                report=report,
                replication=replication,
            )

    # ------------------------------------------------------------------
    # lifecycle: the tree owns the machine it built for itself
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Evict the tree's rank-resident state; release an owned machine.

        Eviction runs even for a shared machine — trees built on one
        machine in sequence must not accumulate forests in the rank
        stores (worker processes are long-lived).  A machine the caller
        passed in stays open (it may serve other trees); close it
        yourself or use it as a context manager.
        """
        if not self._closed:
            evict_tree(self.machine, self.construct_result.ns)
        self._closed = True
        # the engine points back at the tree: drop it, so a closed tree
        # (and the arrays it holds) is freed by reference count instead
        # of waiting for a cyclic collection nothing here provokes
        self._engine = None
        if self._owns_machine:
            self.machine.close()

    def __enter__(self) -> "DistributedRangeTree":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # re-annotation (Algorithm AssociativeFunction step 1)
    # ------------------------------------------------------------------
    def reannotate(self, semigroup: Semigroup) -> None:
        """Swap the aggregate function ``f`` without rebuilding topology.

        Refits every forest stack's aggregates locally, then refreshes
        the hat with a single broadcast round (``reannotate:roots``) —
        no sorting, no routing, O(s/p) local work.  This is the declared
        (:attr:`base_semigroup`) swap; the query engine performs the
        same refit lazily — under ``query:refit:*`` labels — when a
        batch folds semigroups the annotation lacks.  A swap that raises
        leaves the tree as it was.  A swap to a count drops every layer.
        """
        with self.machine.scope():
            self._refit(annotation_of(semigroup))
        self.base_semigroup = semigroup

    def _refit(self, semigroup: Semigroup, label: str = "reannotate") -> None:
        """Re-annotate forest + hat with ``semigroup`` (one broadcast round).

        Each stack folds only the layers it does not hold
        (:meth:`~repro.seq.compiled.CompiledForest.annotate`).  The tree
        is bound to ``semigroup`` once every rank holds it; if a step
        raises, the prior annotation is restored the same way — folding
        only what a stack lost, nothing after a lazy refit that kept
        every layer — and the error propagates: one bad semigroup must
        not corrupt the tree for every batch after it.
        """
        # lift first: a semigroup that cannot read these points raises
        # here, before any rank is touched
        values = lift_values(semigroup, self.ranked, self.points)
        prior = self.semigroup
        try:
            self._relabel(values, semigroup, label)
        except Exception:
            try:
                values = lift_values(prior, self.ranked, self.points)
                self._relabel(values, prior, f"{label}-rollback")
            except Exception:
                pass  # best effort: the original failure leads
            raise
        self.semigroup = semigroup

    def _relabel(self, values, semigroup: Semigroup, label: str) -> None:
        """Annotate every rank's stacks and hat replica with ``semigroup``
        from its lifted ``values``: one relabel phase, one broadcast of
        the roots, one hat refresh.  Each rank gets the column once per
        dimension, permuted into that dimension's rank order (rank ``k``
        of dimension ``j`` is row ``inverse[k, j]``): ``d × w`` bytes a
        row for a ``w``-byte value row, against ``w + 8`` for values
        shipped with their ids, so no id is searched on a rank."""
        ranks = self.ranked.ranks
        n, d = ranks.shape
        inverse = np.empty_like(ranks)
        inverse[ranks, np.arange(d)] = np.arange(n, dtype=ranks.dtype)[:, None]
        by_rank = [values[inverse[:, j]] for j in range(d)]
        mach = self.machine
        ns = self.construct_result.ns
        roots_local = mach.run_phase(
            f"{label}:relabel",
            "dist.refit.relabel",
            [(by_rank, semigroup, ns)] * mach.p,
        )
        gathered = mach.exchange_batches(
            f"{label}:roots", [[b] * mach.p for b in roots_local], roots_local[0]
        )
        mach.run_phase(
            f"{label}:refresh-hat",
            "dist.refit.refresh_hat",
            [(gathered[r], semigroup, ns) for r in range(mach.p)],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedRangeTree(n={self.n}, d={self.dim}, p={self.p}, "
            f"semigroup={self.base_semigroup.name})"
        )

