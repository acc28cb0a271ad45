"""The query engine: plan a mixed-mode batch, run ONE search pass, demux.

This is the facade-over-engine split the public API is built on.  The
engine turns a :class:`~repro.query.descriptors.QueryBatch` into:

1. a **plan** — per-query :class:`~repro.query.modes.QuerySpec` demux
   rules, the mask of the queries that report rather than fold, and the
   annotation (semigroup) layers the pass requires;
2. a lazy **annotation refit** when an aggregate-family query names a
   semigroup the tree is not currently annotated with — a
   ``reannotate``-style local refit plus one broadcast round, never a
   sort or routing round, cached in the tree's annotation (a
   :class:`~repro.semigroup.ProductSemigroup` keyed by component name);
3. a single **Algorithm Search pass** over all boxes (one hat walk, one
   demand round, one replication round-set, one routing round — §5);
4. a single shared **demultiplexing fold**: every query's pieces —
   counts, semigroup values, point ids — ride one sample sort and one
   segmented run-fold (:mod:`repro.dist.modes`), with the combine
   operation dispatched per query id;
5. a :class:`~repro.query.result.ResultSet` carrying the answers in
   batch order plus the pass's superstep trace.

The round count of a mixed batch therefore equals that of a single-mode
batch of the same size: modes share the pass instead of re-running it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from ..cgm.columns import RecordBatch, RecordCodec, register_codec
from ..cgm.sort import sample_sort_cols
from ..dist.modes import accumulate_runs, resolve_sorted_runs
from ..dist.search import run_search
from ..errors import DimensionMismatch, ProtocolError
from ..semigroup import COUNT, ProductSemigroup, Semigroup, product_semigroup
from ..semigroup.kernels import (
    KernelColumn,
    ProductKernel,
    fold_segments,
    kernel_for,
)
from .descriptors import Query, QueryBatch
from .modes import CountMode, QuerySpec, get_mode
from .result import QueryResult, ResultSet

__all__ = ["QueryEngine", "QueryPlan", "plan_batch"]


class PieceCodec(RecordCodec):
    """The demux piece stream: ``qid`` key column, ``pid`` for report
    pieces (−1 otherwise), ``val`` object column for fold payloads.

    The per-record view is the piece tuple the segmented run-fold
    consumes — ``(qid, pid)`` for report pieces, ``(qid, (qid, value))``
    for fold pieces.
    """

    name = "query.piece"
    record_type = object

    def pack(self, records):
        qid = np.fromiter((q for q, _ in records), dtype=np.int64, count=len(records))
        pid = np.empty(len(records), dtype=np.int64)
        val = np.empty(len(records), dtype=object)
        for i, (_q, payload) in enumerate(records):
            if isinstance(payload, (int, np.integer)):
                pid[i] = payload
            else:
                pid[i] = -1
                val[i] = payload
        return {"qid": qid, "pid": pid, "val": val}

    def unpack(self, cols, i):
        v = cols["val"][i]
        if v is None:
            return (int(cols["qid"][i]), int(cols["pid"][i]))
        return (int(cols["qid"][i]), v)


register_codec(PieceCodec())


class _SelectionRow:
    """Lazy row view of a hat- or forest-selection batch, for fold-family
    demux.

    ``piece_value`` callbacks read ``nleaves``/``agg`` — what both
    selection kinds carry; materializing a full dataclass record (the
    unflattened path) per fold piece would give back a big slice of the
    columnar win.  The view is reused across rows within one demux
    pass, so callbacks must not retain it (the built-ins fold
    immediately).
    """

    __slots__ = ("_cols", "i")

    def __init__(self, cols) -> None:
        self._cols = cols
        self.i = 0

    @property
    def qid(self) -> int:
        return int(self._cols["qid"][self.i])

    @property
    def nleaves(self) -> int:
        return int(self._cols["nleaves"][self.i])

    @property
    def agg(self):
        return self._cols["agg"][self.i]


def _merge_runs(a: List[tuple], b: List[tuple]) -> List[tuple]:
    """Merge two qid-ordered run lists with disjoint qids (a query folds
    either through a kernel or through ``combine``, never both) into one
    qid-ordered list."""
    if not a:
        return b
    if not b:
        return a
    out: List[tuple] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][0] < b[j][0]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


class _KernelFoldPlan:
    """Which specs fold through typed kernels, and how (driver-decided).

    ``gid[qid]`` is ``-1`` for object-fold queries, else an index into
    ``kinds``; a kind is ``("count", kernel, 0)`` — piece values are the
    selections' leaf counts — or ``("slot", kernel, offset)`` — piece
    values are one component's columns of the typed annotation storage,
    starting at ``offset``.  ``width`` sizes the shared float64 piece
    matrix (the widest participating kernel).
    """

    __slots__ = ("gid", "kinds", "width")

    def __init__(self, gid: np.ndarray, kinds: list) -> None:
        self.gid = gid
        self.kinds = kinds
        self.width = max(k.width for _kind, k, _off in kinds)


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

    ``specs[qid]`` is the demux rule for query ``qid``; ``report`` is
    the bool mask of the queries that report point ids instead of
    folding (``spec.report_pids``, stored once for the pass and the
    demux); ``annotations`` lists the semigroups the pass folds
    and ``refit_semigroup`` is the product the tree must be annotated
    with first (``None`` when the current annotation already covers it).
    """

    def __init__(
        self,
        batch: QueryBatch,
        specs: List[QuerySpec],
        report: np.ndarray,
        annotations: List[Semigroup],
        refit_semigroup: Semigroup | None,
        annotation_token: Any = None,
    ) -> None:
        self.batch = batch
        self.specs = specs
        self.report = report
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
        for spec in self.specs:
            counts[spec.mode.name] = counts.get(spec.mode.name, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryPlan(m={len(self.specs)}, modes={self.mode_counts()}, "
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
        """Resolve modes, annotation needs, and demux specs for ``batch``."""
        tree = self.tree
        base = tree.base_semigroup
        current = _annotation_components(tree.semigroup)
        current_names = [c.name for c in current]

        needed: Dict[str, Semigroup] = {}
        mode_of: List[Tuple[Query, Any, Semigroup | None]] = []
        for qid, query in enumerate(batch):
            if query.box.dim != tree.dim:
                raise DimensionMismatch(tree.dim, query.box.dim, f"query {qid} box")
            mode = get_mode(query.mode)
            mode.validate(query, tree.dim)
            sg = mode.required_semigroup(query, base)
            if sg is not None and sg.name not in needed:
                needed[sg.name] = sg
            mode_of.append((query, mode, sg))

        missing = [sg for name, sg in needed.items() if name not in current_names]
        refit: Semigroup | None = None
        if missing:
            merged = current + missing
            if len(merged) > MAX_ANNOTATION_LAYERS:
                # Evict oldest extra layers: keep the build-time layer,
                # everything this batch needs, then the newest others.
                keep = [merged[0]]
                keep += [c for c in merged[1:] if c.name in needed]
                kept = {c.name for c in keep}
                for c in reversed(merged[1:]):
                    if len(keep) >= MAX_ANNOTATION_LAYERS:
                        break
                    if c.name not in kept:
                        keep.append(c)
                        kept.add(c.name)
                merged = keep
            refit = product_semigroup(merged)

        # Demux specs are built against the annotation the pass will see.
        final = _annotation_components(refit if refit is not None else tree.semigroup)
        final_names = [c.name for c in final]
        product = len(final) > 1

        specs: List[QuerySpec] = []
        for qid, (query, mode, sg) in enumerate(mode_of):
            if sg is None:
                extract = lambda agg: agg
            elif product:
                slot = final_names.index(sg.name)
                extract = lambda agg, _i=slot: agg[_i]
            else:
                extract = lambda agg: agg
            specs.append(mode.spec(query, qid, sg, extract))
        batch.bounds  # stack the boxes now: the serve pipeline plans off the executor
        return QueryPlan(
            batch,
            specs,
            np.fromiter((s.report_pids for s in specs), dtype=bool, count=len(specs)),
            final,
            refit,
            annotation_token=tree.semigroup,
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
        if isinstance(batch, Query):
            batch = QueryBatch([batch])
        elif not isinstance(batch, QueryBatch):
            batch = QueryBatch(list(batch))
        if replication is not None:
            batch = QueryBatch(batch.queries, replication=replication)
        return self.execute(self.plan(batch))

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
            tree.hat,
            tree.forest_store,
            tree.ranked.to_rank_bounds(*batch.bounds),
            report=plan.report,
            replication=batch.replication,
            ns=tree._ensure_resident(),
        )

        answers = self._demux(plan, out)
        results = [
            QueryResult(qid=spec.qid, mode=spec.mode.name, query=spec.query, value=v)
            for spec, v in zip(plan.specs, answers)
        ]
        metrics = tree.machine.metrics.since(snap)
        return ResultSet(results, metrics, replication=batch.replication)

    # ------------------------------------------------------------------
    # the shared demultiplexing fold
    # ------------------------------------------------------------------
    def _demux(self, plan: QueryPlan, out) -> List[Any]:
        """One sort + one segmented fold answers every mode at once.

        Every piece of the batch — counts, semigroup values, point ids,
        one record each — rides one sample sort by query id, so the sort
        output is balanced over *all* pieces (Theorem 5's ``k/p`` term:
        no processor ends with more than ``ceil(total/p)`` of them).
        Report-family ids are then harvested directly from the sorted
        output, while fold-family pieces go through the segmented
        run-fold, whose combine dispatches on the query id; the run
        summaries therefore carry only scalar-sized fold values, never a
        query's id list.
        """
        mach = self.tree.machine
        specs = plan.specs
        p = mach.p

        report_ids, fold_lists, kernel_runs = self._demux_pieces(
            plan, out, self._kernel_fold_plan(plan)
        )

        def op(a, b):
            if a is None:
                return b
            if b is None:
                return a
            qid = a[0]
            return (qid, specs[qid].combine(a[1], b[1]))

        # Kernel-fold queries arrive as precombined run totals from the
        # segmented numpy folds; the rest (disjoint qids) accumulate
        # through ``combine``.  One merged, qid-ordered run list per rank
        # feeds the boundary-resolution round.
        local_runs = [
            _merge_runs(accumulate_runs(fold_lists[r], op), kernel_runs[r])
            for r in range(p)
        ]
        folded = resolve_sorted_runs(mach, local_runs, op, None, "query:demux")

        answers: List[Any] = [spec.finalize(spec.default) for spec in specs]
        for qid, ids in report_ids.items():
            answers[qid] = specs[qid].finalize(ids)
        for per_proc in folded:
            for qid, tagged in per_proc:
                if tagged is None:
                    continue
                answers[qid] = specs[qid].finalize(tagged[1])
        return answers

    def _kernel_fold_plan(self, plan: QueryPlan) -> "_KernelFoldPlan | None":
        """Resolve which fold-family specs ride typed kernel columns.

        Count-mode queries always qualify (their piece values are the
        typed ``nleaves`` column); aggregate-family queries qualify when
        their semigroup has a kernel *and* the tree's annotation storage
        is kernel-backed with a matching component slot.  Everything
        else — top-k merges, user semigroups, trees whose annotation has
        no kernel — folds through ``combine``, row by row, in the same
        batch.
        """
        specs = plan.specs
        vk = getattr(self.tree, "value_kernel", None)
        names = [c.name for c in plan.annotations]
        kinds: List[tuple] = []
        kind_index: Dict[tuple, int] = {}
        gid = np.full(len(specs), -1, dtype=np.int64)
        for i, spec in enumerate(specs):
            if spec.report_pids:
                continue
            if spec.mode.__class__ is CountMode:
                entry = ("count", kernel_for(COUNT), 0)
            elif spec.semigroup is not None and vk is not None:
                sk = kernel_for(spec.semigroup)
                if sk is None or spec.semigroup.name not in names:
                    continue
                slot = names.index(spec.semigroup.name)
                if isinstance(vk, ProductKernel):
                    if slot >= len(vk.components) or vk.component(slot) != sk:
                        continue
                    entry = ("slot", sk, vk.offset(slot))
                elif slot == 0 and vk == sk:
                    entry = ("slot", sk, 0)
                else:
                    continue
            else:
                continue
            key = (entry[0], entry[1].name, entry[2])
            g = kind_index.get(key)
            if g is None:
                g = len(kinds)
                kinds.append(entry)
                kind_index[key] = g
            gid[i] = g
        if not kinds:
            return None
        return _KernelFoldPlan(gid, kinds)

    def _fold_kernel_runs(
        self, kq: np.ndarray, kmat: np.ndarray, kplan: _KernelFoldPlan
    ) -> List[Tuple[int, Any]]:
        """Run totals of the kernel-fold piece rows, via segmented folds.

        ``kq``/``kmat`` are the qid-sorted kernel rows of one rank; runs
        (contiguous equal qids) group by fold kind, each kind folding all
        its runs in a handful of array calls — the engine's replacement
        for one Python ``combine`` per piece.  Decoding happens once per
        *run*, so the output is the exact ``(qid, (qid, value))`` tagged
        structure :func:`~repro.dist.modes.accumulate_runs` produces.
        """
        if not len(kq):
            return []
        change = np.nonzero(kq[1:] != kq[:-1])[0] + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [len(kq)]))
        run_q = kq[starts]
        run_g = kplan.gid[run_q]
        runs: List[Any] = [None] * len(starts)
        for g, (_kind, kern, _off) in enumerate(kplan.kinds):
            pos = np.nonzero(run_g == g)[0]
            if not len(pos):
                continue
            folded = fold_segments(kern, kmat, starts[pos], ends[pos])
            for j, at in enumerate(pos):
                qid = int(run_q[at])
                runs[at] = (qid, (qid, kern.decode_row(folded[j])))
        return runs

    def _demux_pieces(
        self, plan: QueryPlan, out, kplan: "_KernelFoldPlan | None"
    ) -> Tuple[dict, List[list], List[list]]:
        """Piece extraction + shared sort: one ``query.piece`` batch per rank.

        Report-family pieces never touch Python loops: the pass's
        ``(qid, pid)`` pairs append their columns verbatim, and the
        shared sort is the columnar sample sort keyed on ``qid``.  With
        a kernel fold plan, kernel-eligible fold pieces never touch
        Python either — their values fill a shared float64 ``kval``
        matrix straight from the typed ``nleaves``/``agg`` columns and
        fold as segmented reductions after the sort — leaving per-record
        extraction only to specs that fold through ``combine``.

        Returns the harvested report ids, and per rank the qid-sorted
        ``combine``-fold pieces and the kernel runs' precombined totals.

        Known trade-off: ``kval`` is one dense per-row matrix so it can
        ride the shared sort, which means a *mixed* batch pays
        ``8 * W`` zero bytes per report piece in the demux rounds
        (``W`` = widest eligible kernel; 1 for count/sum-only mixes).
        Report-only batches plan no kernel folds (no ``kval``), and
        fold-only batches waste nothing, so only report-heavy batches
        mixed with wide aggregates (bbox/product) notice — a masked
        column kind could drop it if that mix becomes hot.
        """
        mach = self.tree.machine
        specs = plan.specs
        p = mach.p
        is_report = plan.report
        W = kplan.width if kplan is not None else 0

        def fold_rows(qid, val, kval) -> tuple:
            """Piece columns of fold rows: no pid, a value per row."""
            cols = (qid, np.full(len(qid), -1, dtype=np.int64), val)
            return cols + (kval,) if W else cols

        def pair_rows(pairs: RecordBatch) -> tuple:
            """Piece columns of ``(qid, pid)`` pairs: no value."""
            n = len(pairs)
            cols = (pairs.col("qid"), pairs.col("pid"), np.empty(n, dtype=object))
            return cols + (np.zeros((n, W), dtype=np.float64),) if W else cols

        def fold_part(batch: RecordBatch) -> "tuple | None":
            """Fold pieces straight from a selection batch's columns.

            Hat and forest batches alike, for every query that folds.
            Kernel-eligible queries gather their piece rows from the
            batch's typed ``nleaves``/``agg`` columns (one fancy index
            per fold kind); only object-fold specs call their
            ``piece_value`` per row, through the shared lazy row view.
            """
            if not len(batch):
                return None
            qid = np.asarray(batch.col("qid"))
            idx = np.nonzero(~is_report[qid])[0]
            if not len(idx):
                return None
            q_col = qid[idx]
            n = len(idx)
            val = np.empty(n, dtype=object)
            kval = np.zeros((n, W), dtype=np.float64) if W else None
            gid = (
                kplan.gid[q_col]
                if kplan is not None
                else np.full(n, -1, dtype=np.int64)
            )
            row = _SelectionRow(batch.cols)
            for at in np.nonzero(gid < 0)[0]:
                q = int(q_col[at])
                row.i = int(idx[at])
                val[at] = (q, specs[q].piece_value(row))
            if kplan is not None:
                nlv = np.asarray(batch.col("nleaves"))
                agg_col = batch.cols["agg"]
                for g, (kind, kern, off) in enumerate(kplan.kinds):
                    pos = np.nonzero(gid == g)[0]
                    if not len(pos):
                        continue
                    rows_idx = idx[pos]
                    if kind == "count":
                        kval[pos, 0] = nlv[rows_idx]
                    else:
                        if not isinstance(agg_col, KernelColumn):
                            raise ProtocolError(
                                "kernel fold planned over an "
                                "object-typed selection column"
                            )
                        kval[pos, : kern.width] = agg_col.component_rows(
                            rows_idx, off, kern.width
                        )
            return fold_rows(q_col, val, kval)

        no_cols = {
            "qid": np.empty(0, dtype=np.int64),
            "pid": np.empty(0, dtype=np.int64),
            "val": np.empty(0, dtype=object),
        }
        if W:
            no_cols["kval"] = np.zeros((0, W), dtype=np.float64)
        no_pieces = RecordBatch("query.piece", no_cols)  # every idle rank's batch

        batches: List[RecordBatch] = []
        for r in range(p):
            parts = [
                fold_part(out.hat_selections[r]),
                fold_part(out.forest_selections[r]),
            ]
            if len(out.report_pairs[r]):
                parts.append(pair_rows(out.report_pairs[r]))
            parts = [x for x in parts if x is not None]
            if not parts:
                batches.append(no_pieces)
                continue
            cols = {
                "qid": np.concatenate([x[0] for x in parts]),
                "pid": np.concatenate([x[1] for x in parts]),
                "val": np.concatenate([x[2] for x in parts]),
            }
            if W:
                cols["kval"] = np.concatenate([x[3] for x in parts])
            batches.append(RecordBatch("query.piece", cols))

        ordered = sample_sort_cols(
            mach, batches, keyspec=("qid",), label="query:demux:sort"
        )

        report_ids: dict[int, List[int]] = {}
        fold_lists: List[List[Tuple[int, Any]]] = [[] for _ in range(p)]
        kernel_runs: List[list] = [[] for _ in range(p)]
        for r in range(p):
            b = ordered[r]
            if not len(b):
                continue
            q = np.asarray(b.col("qid"))
            pid_col = np.asarray(b.col("pid"))
            val_col = b.col("val")
            rep = is_report[q]
            ridx = np.nonzero(rep)[0]
            if len(ridx):
                rq = q[ridx]
                rp = pid_col[ridx]
                change = np.nonzero(rq[1:] != rq[:-1])[0] + 1
                starts = np.concatenate(([0], change))
                ends = np.concatenate((change, [len(rq)]))
                for s, e in zip(starts, ends):
                    report_ids.setdefault(int(rq[s]), []).extend(
                        rp[s:e].tolist()
                    )
            fidx = np.nonzero(~rep)[0]
            if kplan is None:
                fold_lists[r] = [(int(q[i]), val_col[i]) for i in fidx]
            else:
                fg = kplan.gid[q[fidx]]
                fold_lists[r] = [
                    (int(q[i]), val_col[i]) for i in fidx[fg < 0]
                ]
                ker = fidx[fg >= 0]
                kernel_runs[r] = self._fold_kernel_runs(
                    q[ker], np.asarray(b.col("kval"))[ker], kplan
                )
        return report_ids, fold_lists, kernel_runs


def plan_batch(tree, batch: QueryBatch) -> QueryPlan:
    """Convenience: plan without executing (used by tests and tooling)."""
    return QueryEngine(tree).plan(batch)
