"""The query engine: plan a mixed-mode batch, run ONE search pass, demux.

This is the facade-over-engine split the public API is built on.  The
engine turns a :class:`~repro.query.descriptors.QueryBatch` into:

1. a **plan** — the batch grouped by how it folds: one :class:`Fold` per
   distinct semigroup (plus one for leaf counts), ``group[qid]`` naming
   each query's fold or ``-1`` for a query that reports, and the
   annotation (semigroup) layers the pass requires;
2. a lazy **annotation refit** when an aggregate-family query names a
   semigroup the tree is not currently annotated with — a
   ``reannotate``-style local refit plus one broadcast round, never a
   sort or routing round, cached in the tree's annotation (a
   :class:`~repro.semigroup.ProductSemigroup` keyed by component name);
3. a single **Algorithm Search pass** over all boxes (one hat walk, one
   demand round, one replication round-set, one routing round — §5);
4. a single shared **demultiplexing fold**: every query's pieces —
   counts, semigroup values, point ids — ride one sample sort, then each
   group's runs fold under that group's semigroup
   (:mod:`repro.dist.modes`);
5. a :class:`~repro.query.result.ResultSet` carrying the answers in
   batch order plus the pass's superstep trace.

The round count of a mixed batch therefore equals that of a single-mode
batch of the same size: modes share the pass instead of re-running it.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, List, NamedTuple, Tuple

import numpy as np

from ..cgm.columns import RecordBatch
from ..cgm.sort import sample_sort_cols
from ..dist.modes import accumulate_runs, resolve_sorted_runs
from ..dist.search import run_search
from ..errors import DimensionMismatch, ProtocolError
from ..semigroup import COUNT, ProductSemigroup, Semigroup, product_semigroup
from ..semigroup.kernels import (
    KernelColumn,
    ProductKernel,
    SemigroupKernel,
    fold_segments,
    kernel_for,
)
from .descriptors import QueryBatch
from .modes import OutputMode, get_mode
from .result import QueryResult, ResultSet

__all__ = ["QueryEngine", "QueryPlan", "Fold", "plan_batch"]


class Fold(NamedTuple):
    """How one group of a batch folds: the semigroup, and where its piece
    values sit in a selection row — ``slot is None``: the row's leaf
    count (under :data:`~repro.semigroup.COUNT`); else the component
    index in the annotation the pass runs under."""

    semigroup: Semigroup
    slot: "int | None"


#: Cap on annotation layers the lazy-refit cache keeps on a tree.  A
#: long-lived tree serving many distinct per-query semigroups (say
#: user-chosen top-k sizes) would otherwise grow its per-node aggregate
#: tuples — and the cost of every future refit — without bound.  When
#: the cap is hit, the oldest extra layers are evicted (the build-time
#: semigroup is always kept; the current batch's needs always win, even
#: past the cap).
MAX_ANNOTATION_LAYERS = 8


class QueryPlan:
    """The resolved execution shape of one batch (inspectable, immutable).

    ``modes[qid]`` is query ``qid``'s output mode; ``group[qid]`` indexes
    ``folds`` — one :class:`Fold` per distinct semigroup the batch folds,
    leaf counts included — or is ``-1`` for a query that reports point
    ids instead, and ``report`` (``group < 0``) is the one mask the pass
    and the demux take.  ``annotations`` lists the semigroups the pass
    runs under and ``refit_semigroup`` is the product the tree must be
    annotated with first (``None`` when the current annotation already
    covers it).
    """

    def __init__(
        self,
        batch: QueryBatch,
        modes: List[OutputMode],
        group: np.ndarray,
        folds: List[Fold],
        annotations: List[Semigroup],
        refit_semigroup: Semigroup | None,
        annotation_token: Any = None,
    ) -> None:
        self.batch = batch
        self.modes = modes
        self.group = group
        self.folds = folds
        self.report = group < 0
        self.annotations = annotations
        self.refit_semigroup = refit_semigroup
        #: The tree annotation (by identity) this plan was computed
        #: against; ``execute`` replans if the tree has moved on since —
        #: the guard that lets a pipeline (repro.serve) plan batch K+1
        #: while batch K's pass, possibly refitting, is still running.
        self.annotation_token = annotation_token

    @property
    def needs_refit(self) -> bool:
        return self.refit_semigroup is not None

    def mode_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for mode in self.modes:
            counts[mode.name] = counts.get(mode.name, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryPlan(m={len(self.modes)}, modes={self.mode_counts()}, "
            f"folds={[f.semigroup.name for f in self.folds]}, "
            f"report={int(self.report.sum())}, refit={self.needs_refit})"
        )


def _annotation_components(semigroup: Semigroup) -> List[Semigroup]:
    """The annotation layers currently on the tree, outermost first."""
    if isinstance(semigroup, ProductSemigroup):
        return list(semigroup.components)
    return [semigroup]


class QueryEngine:
    """Plans and executes query batches against one distributed tree."""

    def __init__(self, tree) -> None:
        self.tree = tree

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, batch: QueryBatch) -> QueryPlan:
        """Resolve modes, fold groups and annotation needs for ``batch``."""
        tree = self.tree
        base = tree.base_semigroup
        current = _annotation_components(tree.semigroup)
        current_names = [c.name for c in current]

        modes: List[OutputMode] = []
        group = np.full(len(batch), -1, dtype=np.int64)
        #: the batch's distinct folds in first-use order, keyed by semigroup
        #: name (``None``: leaf counts, which need no annotation)
        semigroups: List[Semigroup | None] = []
        gid_of: Dict[Any, int] = {}
        for qid, query in enumerate(batch):
            if query.box.dim != tree.dim:
                raise DimensionMismatch(tree.dim, query.box.dim, f"query {qid} box")
            mode = get_mode(query.mode)
            mode.validate(query, tree.dim)
            modes.append(mode)
            if mode.reports:
                continue
            sg = mode.required_semigroup(query, base)
            key = None if sg is None else sg.name
            g = gid_of.get(key)
            if g is None:
                g = gid_of[key] = len(semigroups)
                semigroups.append(sg)
            group[qid] = g

        missing = [
            sg for sg in semigroups
            if sg is not None and sg.name not in current_names
        ]
        refit: Semigroup | None = None
        if missing:
            merged = current + missing
            if len(merged) > MAX_ANNOTATION_LAYERS:
                # Evict oldest extra layers: keep the build-time layer,
                # everything this batch needs, then the newest others.
                keep = [merged[0]]
                keep += [c for c in merged[1:] if c.name in gid_of]
                kept = {c.name for c in keep}
                for c in reversed(merged[1:]):
                    if len(keep) >= MAX_ANNOTATION_LAYERS:
                        break
                    if c.name not in kept:
                        keep.append(c)
                        kept.add(c.name)
                merged = keep
            refit = product_semigroup(merged)

        # Slots are read against the annotation the pass will see.
        final = _annotation_components(refit if refit is not None else tree.semigroup)
        final_names = [c.name for c in final]
        folds = [
            Fold(COUNT, None) if sg is None else Fold(sg, final_names.index(sg.name))
            for sg in semigroups
        ]
        batch.bounds  # stack the boxes now: the serve pipeline plans off the executor
        return QueryPlan(
            batch, modes, group, folds, final, refit, annotation_token=tree.semigroup
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, batch, replication: str | None = None) -> ResultSet:
        """Answer ``batch`` in a single Algorithm Search pass.

        ``batch`` may be a :class:`QueryBatch`, a sequence of
        :class:`Query` descriptors, or a single :class:`Query`.
        Equivalent to ``execute(plan(batch))`` — callers that want to
        overlap planning with a previous batch's execution (the serve
        layer's collector/executor pipeline) call the two halves
        separately.
        """
        return self.execute(self.plan(QueryBatch.coerce(batch, replication)))

    def execute(self, plan: QueryPlan) -> ResultSet:
        """Run a previously computed :class:`QueryPlan`.

        A plan is valid against the annotation state it was planned
        over; if another batch's lazy refit has since swapped the tree's
        annotation (``annotation_token`` no longer matches), the batch
        is transparently re-planned first — cheap, driver-side, no
        communication — so pipelined planning can never fold against a
        stale annotation layout.
        """
        tree = self.tree
        if plan.annotation_token is not tree.semigroup:
            plan = self.plan(plan.batch)
        batch = plan.batch
        snap = tree.machine.metrics.mark()

        # Lazy annotation refit: local work + one broadcast round, cached.
        if plan.refit_semigroup is not None:
            prior = tree.semigroup
            try:
                tree._refit(plan.refit_semigroup, label="query:refit")
            except Exception:
                # A poisoned semigroup can raise mid-refold, leaving the
                # aggregates half-swapped.  Restore the prior annotation
                # (a full recompute from the points, so partial damage
                # heals) before propagating: one bad query must not
                # corrupt the tree for every batch after it.
                try:
                    tree._refit(prior, label="query:refit-rollback")
                except Exception:
                    pass  # best effort: the original failure leads
                raise

        out = run_search(
            tree.machine,
            tree._ensure_resident(),
            tree.forest_store,
            tree.ranked.to_rank_bounds(*batch.bounds),
            report=plan.report,
            replication=batch.replication,
        )

        answers = self._demux(plan, out)
        results = [
            QueryResult(qid=qid, mode=mode.name, query=query, value=v)
            for qid, (mode, query, v) in enumerate(zip(plan.modes, batch, answers))
        ]
        metrics = tree.machine.metrics.since(snap)
        return ResultSet(results, metrics, replication=batch.replication)

    # ------------------------------------------------------------------
    # the shared demultiplexing fold
    # ------------------------------------------------------------------
    def _fold_kernels(
        self, plan: QueryPlan
    ) -> List["Tuple[SemigroupKernel, int] | None"]:
        """Per fold group: the typed kernel its pieces ride and the column
        offset of its slot in the annotation storage, or ``None``.

        Leaf counts always qualify (their piece values are the typed
        ``nleaves`` column); an annotation fold qualifies when its
        semigroup has a kernel *and* the tree's annotation storage is
        kernel-backed with a matching component slot.  Everything else —
        top-k merges, user semigroups, trees whose annotation has no
        kernel — folds through ``combine``, row by row, in the same
        batch.
        """
        vk = getattr(self.tree, "value_kernel", None)
        kernels: List["Tuple[SemigroupKernel, int] | None"] = []
        for fold in plan.folds:
            sk, slot = kernel_for(fold.semigroup), fold.slot
            if slot is None:
                off = 0
            elif sk is None or vk is None:
                off = None
            elif isinstance(vk, ProductKernel):
                fits = slot < len(vk.components) and vk.component(slot) == sk
                off = vk.offset(slot) if fits else None
            else:
                off = 0 if slot == 0 and vk == sk else None
            kernels.append(None if off is None else (sk, off))
        return kernels

    def _demux(self, plan: QueryPlan, out) -> List[Any]:
        """One sort + one fold per group answers every mode at once.

        Every piece of the batch — counts, semigroup values, point ids,
        one record each — rides one sample sort by query id, so the sort
        output is balanced over *all* pieces (Theorem 5's ``k/p`` term:
        no processor ends with more than ``ceil(total/p)`` of them).
        Each rank then cuts its sorted rows into runs of one query:
        reporting queries' ids are harvested as they lie, a kernel
        group's runs fold in a handful of array calls
        (:func:`~repro.semigroup.kernels.fold_segments`), the others
        through ``combine``; the run summaries of the boundary round
        therefore carry only scalar-sized fold values, never a query's
        id list.
        """
        group, folds = plan.group, plan.folds
        kernels = self._fold_kernels(plan)
        combine = [f.semigroup.combine for f in folds]

        def op(a, b):
            if a is None:
                return b
            if b is None:
                return a
            qid = a[0]
            return (qid, combine[group[qid]](a[1], b[1]))

        values: List[Any] = [
            [] if g < 0 else folds[g].semigroup.identity for g in group.tolist()
        ]
        local_runs: List[List[Tuple[int, Any]]] = []
        for b in self._sorted_pieces(plan, out, kernels):
            runs: List[Tuple[int, Any]] = []
            local_runs.append(runs)
            if not len(b):
                continue
            q = np.asarray(b.col("qid"))
            change = np.nonzero(q[1:] != q[:-1])[0] + 1
            starts = np.concatenate(([0], change))
            ends = np.concatenate((change, [len(q)]))
            run_q = q[starts]
            run_g = group[run_q]
            pid = np.asarray(b.col("pid"))
            for at in np.nonzero(run_g < 0)[0]:
                values[run_q[at]] += pid[starts[at] : ends[at]].tolist()
            for g, typed in enumerate(kernels):
                pos = np.nonzero(run_g == g)[0]
                if not len(pos):
                    continue
                if typed is None:
                    val = b.col("val")
                    rows = np.nonzero(group[q] == g)[0]
                    runs += accumulate_runs([(int(q[i]), val[i]) for i in rows], op)
                else:
                    kern = typed[0]
                    totals = fold_segments(
                        kern, np.asarray(b.col("kval")), starts[pos], ends[pos]
                    )
                    runs += [
                        (qid, (qid, kern.decode_row(row)))
                        for qid, row in zip(run_q[pos].tolist(), totals)
                    ]
            runs.sort(key=itemgetter(0))

        mach = self.tree.machine
        for per_proc in resolve_sorted_runs(mach, local_runs, op, None, "query:demux"):
            for qid, tagged in per_proc:
                values[qid] = tagged[1]
        return [
            mode.finalize(v, query)
            for mode, v, query in zip(plan.modes, values, plan.batch)
        ]

    def _sorted_pieces(
        self, plan: QueryPlan, out, kernels: list
    ) -> List[RecordBatch]:
        """Piece extraction + shared sort: one ``query.piece`` batch per rank.

        No piece of a typed group touches a Python loop: the pass's
        ``(qid, pid)`` pairs append their columns verbatim, a kernel
        group's values fill a shared float64 ``kval`` matrix straight
        from the typed ``nleaves``/``agg`` columns, and the shared sort
        is the columnar sample sort keyed on ``qid`` — leaving per-row
        extraction (into the object ``val`` column) only to groups that
        fold through ``combine``.

        Known trade-off: ``kval`` is one dense per-row matrix so it can
        ride the shared sort, which means a *mixed* batch pays
        ``8 * W`` zero bytes per report piece in the demux rounds
        (``W`` = widest participating kernel; 1 for count/sum-only
        mixes).  Report-only batches have no kernel group (no ``kval``),
        and fold-only batches waste nothing, so only report-heavy
        batches mixed with wide aggregates (bbox/product) notice — a
        masked column kind could drop it if that mix becomes hot.
        """
        mach = self.tree.machine
        group, folds, is_report = plan.group, plan.folds, plan.report
        product = len(plan.annotations) > 1
        W = max((k[0].width for k in kernels if k is not None), default=0)

        def fold_part(batch: RecordBatch) -> "tuple | None":
            """Fold pieces straight from a selection batch's columns —
            hat and forest batches alike: one gather per fold group."""
            if not len(batch):
                return None
            qid = np.asarray(batch.col("qid"))
            idx = np.nonzero(~is_report[qid])[0]
            if not len(idx):
                return None
            q_col = qid[idx]
            n = len(idx)
            val = np.empty(n, dtype=object)
            kval = np.zeros((n, W), dtype=np.float64)
            gid = group[q_col]
            agg_col = batch.cols["agg"]
            for g, (fold, typed) in enumerate(zip(folds, kernels)):
                pos = np.nonzero(gid == g)[0]
                if not len(pos):
                    continue
                rows = idx[pos]
                if fold.slot is None:
                    kval[pos, 0] = np.asarray(batch.col("nleaves"))[rows]
                elif typed is None:
                    for at, q, i in zip(pos.tolist(), q_col[pos].tolist(), rows.tolist()):
                        v = agg_col[i]
                        val[at] = (q, v[fold.slot] if product else v)
                elif isinstance(agg_col, KernelColumn):
                    kern, off = typed
                    kval[pos, : kern.width] = agg_col.component_rows(
                        rows, off, kern.width
                    )
                else:
                    raise ProtocolError(
                        "kernel fold planned over an object-typed selection column"
                    )
            return q_col, np.full(n, -1, dtype=np.int64), val, kval

        def pair_rows(pairs: RecordBatch) -> tuple:
            """Piece columns of ``(qid, pid)`` pairs: no value."""
            n = len(pairs)
            return (
                pairs.col("qid"),
                pairs.col("pid"),
                np.empty(n, dtype=object),
                np.zeros((n, W), dtype=np.float64),
            )

        # no typed group, no ``kval`` column on the wire
        names = ("qid", "pid", "val", "kval")[: 4 if W else 3]
        no_pieces = (
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=object),
            np.zeros((0, W), dtype=np.float64),
        )
        batches: List[RecordBatch] = []
        for r in range(mach.p):
            parts = [
                fold_part(out.hat_selections[r]),
                fold_part(out.forest_selections[r]),
            ]
            if len(out.report_pairs[r]):
                parts.append(pair_rows(out.report_pairs[r]))
            parts = [x for x in parts if x is not None] or [no_pieces]
            batches.append(
                RecordBatch(
                    "query.piece",
                    {
                        name: np.concatenate([x[j] for x in parts])
                        for j, name in enumerate(names)
                    },
                )
            )
        return sample_sort_cols(
            mach, batches, keyspec=("qid",), label="query:demux:sort"
        )


def plan_batch(tree, batch: QueryBatch) -> QueryPlan:
    """Convenience: plan without executing (used by tests and tooling)."""
    return QueryEngine(tree).plan(batch)
