"""The distributed d-dimensional range tree (Ferreira, Kenyon,
Rau-Chaplin & Ubeda, IPPS 1997).

This package is the paper's contribution: a CGM(s, p) range tree split
into a replicated **hat** (the top ``O(p log^{d-1} p)`` nodes of every
segment tree — §4, Definition 3, :mod:`repro.dist.hat`) and a
distributed **forest** of ``n/p``-point range trees (Theorem 1,
:mod:`repro.dist.forest`), built in O(1) communication rounds per
dimension (Theorem 2, :mod:`repro.dist.construct`) and queried in
batches of ``m = O(n)`` with O(1) rounds per batch (Theorems 3-5,
:mod:`repro.dist.search` and :mod:`repro.dist.modes`).

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

from .._util import require_power_of_two
from ..cgm.collectives import alltoall_broadcast
from ..cgm.columns import obj_col
from ..cgm.cost import CostModel
from ..cgm.machine import Machine
from ..cgm.phases import ProcContext, register_phase
from ..geometry.box import Box
from ..geometry.point import PointSet
from ..geometry.rankspace import RankedPointSet, pad_to_power_of_two
from ..semigroup import COUNT, Semigroup
from ..semigroup.kernels import lift_kernel_column
from .construct import (
    ConstructResult,
    construct_distributed_tree,
    forest_key,
    hat_key,
)
from .forest import ForestElement, build_forest_element
from .hat import Hat
from .labeling import is_valid_path
from .records import ForestRootInfo
from .search import SearchOutput, run_search
from .validate import ValidationReport, validate_tree

__all__ = [
    "DistributedRangeTree",
    "DynamicDistributedRangeTree",
    "ConstructResult",
    "construct_distributed_tree",
    "ForestElement",
    "build_forest_element",
    "Hat",
    "SearchOutput",
    "run_search",
    "ForestRootInfo",
    "ValidationReport",
    "validate_tree",
    "is_valid_path",
]


def lift_values(semigroup: Semigroup, ranked: RankedPointSet, points: PointSet):
    """``f`` over every row of ``ranked``, identity on the sentinel rows.

    A typed column when the semigroup names a kernel — the whole
    coordinate matrix lifts in a few array ops — else an object column
    of per-point ``lift`` values.  How values reach a build is how they
    reach a refit.
    """
    if semigroup.kernel is not None:
        return lift_kernel_column(semigroup.kernel, points.coords, ranked.n)
    lifted = [semigroup.lift(int(pid), row) for pid, row in zip(points.ids, points.coords)]
    return obj_col(lifted + [semigroup.identity] * (ranked.n - ranked.n_real))


@register_phase("dist.refit.relabel")
def _phase_refit_relabel(ctx: ProcContext, payload) -> list:
    """Re-annotate this rank's resident forest elements; return root infos.

    ``values`` is :func:`lift_values`' column (typed or object) reordered
    to run along ``ids``, the ranked ids in sorted order, so one
    ``searchsorted`` finds an element's fresh values.
    """
    values, ids, semigroup, ns = payload
    infos = []
    for el in (ctx.state.get(forest_key(ns)) or {}).values():
        el.reannotate(values[np.searchsorted(ids, el.pids)], semigroup)
        infos.append(el.root_info())
        ctx.charge(el.size_records)
    return infos


@register_phase("dist.refit.refresh_hat")
def _phase_refit_refresh(ctx: ProcContext, payload) -> None:
    """Refresh the resident hat's aggregates from the broadcast roots.

    On the serial backend every rank aliases one shared :class:`Hat`, so
    it is refreshed once, by rank 0 (``solo=True``) — the other ranks
    return at once.  Worker processes each hold their own replica and
    all must refresh.
    Charging stays on rank 0 alone either way, so the metric trace is
    backend-independent.
    """
    roots, semigroup, ns, solo = payload
    if solo and ctx.rank != 0:
        return
    hat = ctx.state.get(hat_key(ns))
    if hat is not None:
        hat.refresh_aggregates(roots, semigroup)
        if ctx.rank == 0:
            ctx.charge(hat.size_nodes())


class DistributedRangeTree:
    """Facade over the distributed range tree's full life cycle.

    Build with :meth:`build`; query by handing a (mixed-mode)
    :class:`~repro.query.QueryBatch` — or a plain list of
    :mod:`repro.query` descriptors — to :meth:`run`; change the
    aggregate function in place with :meth:`reannotate`; inspect the
    machine's superstep trace through :attr:`metrics`.  All
    communication happens on the attached
    :class:`~repro.cgm.machine.Machine`, so every theorem-level claim
    (rounds, h-relations, per-processor work) is measurable.

    ``semigroup`` is the user-declared aggregate (``f``); the tree's
    *annotation* may temporarily widen to a
    :class:`~repro.semigroup.ProductSemigroup` when the query engine
    lazily refits extra per-query semigroups — :attr:`base_semigroup`
    always names the declared one.
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
        self.semigroup = semigroup
        self.base_semigroup = semigroup
        self.construct_result = construct_result
        self.hat = construct_result.hat
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
        cost: CostModel | None = None,
        capacity: int | None = None,
    ) -> "DistributedRangeTree":
        """Build the tree over ``points`` on ``p`` virtual processors.

        ``points`` may be a :class:`~repro.geometry.point.PointSet` or
        any plain coordinate collection it accepts — a list of tuples, a
        numpy ``(n, d)`` array — so the quickstart needs no workload
        helpers.  Pass an existing ``machine`` to reuse it (its ``p``
        wins); both paths require a power-of-two processor count.
        Points are rank-normalised and padded so that ``n`` is a power
        of two and ``n >= p`` (§3's "without loss of generality"
        assumptions).
        """
        if not isinstance(points, PointSet):
            points = PointSet(points)
        owns_machine = machine is None
        if machine is None:
            if p is None:
                p = 4
            require_power_of_two("processor count p", p)
            machine = Machine(p, backend=backend, cost=cost, capacity=capacity)
        else:
            p = machine.p
            require_power_of_two("processor count p", p)
        ranked = pad_to_power_of_two(points, minimum=p)
        values = lift_values(semigroup, ranked, points)
        result = construct_distributed_tree(machine, ranked, values, semigroup)
        return cls(
            points, ranked, machine, semigroup, result, owns_machine=owns_machine
        )

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
    def value_kernel(self):
        """Kernel backing the *current* annotation's value columns
        (``None`` = object storage)."""
        return self.semigroup.kernel

    @property
    def metrics(self):
        """The machine's superstep trace (rounds, h-relations, work)."""
        return self.machine.metrics

    def reset_metrics(self) -> None:
        self.machine.reset_metrics()

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
                len(store) for store in self.forest_store
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

    def run(self, batch, replication: str | None = None):
        """Answer a (mixed-mode) batch in one Algorithm Search pass.

        ``batch`` is a :class:`~repro.query.QueryBatch`, a sequence of
        :class:`~repro.query.Query` descriptors, or a single descriptor;
        returns a :class:`~repro.query.ResultSet` with answers in batch
        order plus the pass's superstep metrics.
        """
        return self.engine.run(batch, replication=replication)

    def search(
        self,
        boxes: Sequence[Box],
        report: "np.ndarray | bool" = False,
        replication: str = "doubling",
    ) -> SearchOutput:
        """Run Algorithm Search for a batch of real-coordinate boxes;
        ``report`` (one bool, or a mask over ``boxes``) marks the queries
        whose points the pass emits as ``(qid, pid)`` pairs."""
        return run_search(
            self.machine,
            [(self._ensure_resident(), self.ranked.to_rank_bounds(*Box.stack(boxes)))],
            report=report,
            replication=replication,
        )

    # ------------------------------------------------------------------
    # lifecycle: the tree owns the machine it built for itself
    # ------------------------------------------------------------------
    def _ensure_resident(self) -> str:
        """The tree's state namespace, seeding residency if it has none.

        Trees assembled from hand-built stores (``ConstructResult`` with
        an empty ``ns``) get their forest/hat installed into the rank
        stores on first need — by reference on in-process backends — so
        refits and searches hit real resident state instead of silently
        finding nothing.
        """
        ns = self.construct_result.ns
        if not ns:
            mach = self.machine
            ns = mach.new_ns("tree")
            mach.seed_state(forest_key(ns), list(self.forest_store))
            mach.seed_state(hat_key(ns), [self.hat] * mach.p)
            self.construct_result.ns = ns
        return ns

    def close(self) -> None:
        """Evict the tree's rank-resident state; release an owned machine.

        Eviction runs even for a shared machine — trees built on one
        machine in sequence must not accumulate forests in the rank
        stores (worker processes are long-lived).  A machine the caller
        passed in stays open (it may serve other trees); close it
        yourself or use it as a context manager.
        """
        ns = self.construct_result.ns
        if ns and not self._closed:
            for key in (forest_key(ns), hat_key(ns), f"{ns}:holders",
                        f"{ns}:stored_records"):
                try:
                    self.machine.seed_state(key, [None] * self.machine.p)
                except Exception:  # backend already shut down
                    break
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

        Refits every forest element's aggregates locally, then refreshes
        the hat with a single broadcast round (``reannotate:roots``) —
        no sorting, no routing, O(s/p) local work.  This is the declared
        (:attr:`base_semigroup`) swap; the query engine performs the
        same refit lazily — under ``query:refit:*`` labels — when a
        batch folds semigroups the annotation lacks.
        """
        self._refit(semigroup)
        self.base_semigroup = semigroup

    def _refit(self, semigroup: Semigroup, label: str = "reannotate") -> None:
        """Re-annotate forest + hat with ``semigroup`` (one broadcast round)."""
        # lift first: a semigroup that cannot read these points raises
        # here, before anything is rebound
        values = lift_values(semigroup, self.ranked, self.points)
        self.semigroup = semigroup
        by_id = np.argsort(self.ranked.ids)

        mach = self.machine
        ns = self._ensure_resident()
        roots_local = mach.run_phase(
            f"{label}:relabel",
            "dist.refit.relabel",
            [(values[by_id], self.ranked.ids[by_id], semigroup, ns)] * mach.p,
        )
        gathered = alltoall_broadcast(mach, roots_local, label=f"{label}:roots")

        solo = mach.backend.in_process
        mach.run_phase(
            f"{label}:refresh-hat",
            "dist.refit.refresh_hat",
            [(gathered[r], semigroup, ns, solo) for r in range(mach.p)],
        )
        if not solo:
            # The driver's introspection replica refreshes too (no charge:
            # it is the p+1-th copy, outside the machine).
            self.hat.refresh_aggregates(gathered[0], semigroup)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DistributedRangeTree(n={self.n}, d={self.dim}, p={self.p}, "
            f"semigroup={self.base_semigroup.name})"
        )


# Imported last: repro.dist.dynamic wraps DistributedRangeTree, and living
# under this package keeps its phases inside BOOTSTRAP_MODULES' closure so
# spawn-started worker processes register them too.
from .dynamic import DynamicDistributedRangeTree  # noqa: E402
