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
4. a **demux** that gives each output mode of §5 what its theorem asks
   for and nothing more, in three rounds whatever the batch holds: every
   rank folds its own pieces of a query under the query's group (``⊕`` is
   commutative) and one routed round takes the partial values to the
   query's home rank, where the same fold completes the answer
   (Theorem 4) — the driver runs the ``p`` rank folds as one segmented
   fold keyed by ``(rank, qid)`` and the home fold once, in the rounds
   and bytes of folding rank by rank; the ``(qid, pid)`` pairs of
   reporting queries are balanced to ``ceil(k/p)`` per rank by a count
   + prefix-sum round pair (Theorem 5).  No rank sorts; each query's ids
   come out ascending;
5. a :class:`~repro.query.result.ResultSet` carrying the answers in
   batch order plus the pass's superstep trace.

A pass is ``5 + log2 p`` communication rounds — demands, ``log2 p``
replication rounds, subquery routing and the demux's three — for an
empty, a one-query or a full batch, and a mixed batch costs the rounds
of a single-mode one: modes share the pass instead of re-running it.

An engine runs over one tree or over several trees sharing one machine
(the buckets of :mod:`repro.dist.dynamic`): the plan is made against
the first, every tree annotated otherwise is refit to the plan's
annotation, and the trees are the *parts* of the one Search pass.  A
query's pieces from every tree fold under its qid, so the answer over
the trees' disjoint point sets costs the rounds of one tree.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple

import numpy as np

from ..cgm.columns import RecordBatch
from ..cgm.collectives import route_batches
from ..cgm.sort import route_balanced_cols
from ..dist.search import run_search
from ..errors import DimensionMismatch, ProtocolError
from ..semigroup import COUNT, ProductSemigroup, Semigroup, product_semigroup
from ..semigroup.kernels import SemigroupKernel, fold_segments
from .descriptors import QueryBatch
from .modes import OutputMode, get_mode
from .result import ResultSet

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
        #: a caller of the public ``plan``/``execute`` pair may refit the
        #: tree (another batch's pass, a ``reannotate``) in between.
        self.annotation_token = annotation_token

    @property
    def needs_refit(self) -> bool:
        return self.refit_semigroup is not None

    @property
    def annotation(self) -> Semigroup:
        """The annotation the pass runs under: every tree is refit to it."""
        return self.annotation_token if self.refit_semigroup is None else self.refit_semigroup

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
    """Plans and executes query batches against one distributed tree, or
    against several on one machine as the parts of one pass (``tree`` —
    the first — is the one plans are made against)."""

    def __init__(self, tree, *more) -> None:
        self.tree = tree
        self.trees = (tree, *more)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def plan(self, batch: QueryBatch) -> QueryPlan:
        """Resolve modes (once per name), fold groups and annotation needs."""
        tree = self.tree
        base = tree.base_semigroup
        current = _annotation_components(tree.semigroup)
        current_names = [c.name for c in current]

        dim = tree.dim
        try:  # stack the boxes once, here: the pass reads the same pair
            fits = not len(batch) or batch.bounds[0].shape[1] == dim
        except DimensionMismatch:
            fits = False
        if not fits:
            qid = next(i for i, q in enumerate(batch) if q.box.dim != dim)
            raise DimensionMismatch(dim, batch[qid].box.dim, f"query {qid} box")

        kinds = {name: get_mode(name) for name in dict.fromkeys(q.mode for q in batch)}
        modes: List[OutputMode] = []
        gids: List[int] = []
        #: the batch's distinct folds in first-use order, keyed by semigroup
        #: name (``None``: leaf counts, which need no annotation)
        semigroups: List[Semigroup | None] = []
        gid_of: Dict[Any, int] = {}
        for query in batch:
            mode = kinds[query.mode]
            mode.validate(query, dim)
            modes.append(mode)
            if mode.reports:
                gids.append(-1)
                continue
            sg = mode.required_semigroup(query, base)
            key = None if sg is None else sg.name
            g = gid_of.get(key)
            if g is None:
                g = gid_of[key] = len(semigroups)
                semigroups.append(sg)
            gids.append(g)
        group = np.array(gids, dtype=np.int64)

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
        return QueryPlan(
            batch, modes, group, folds, final, refit, annotation_token=tree.semigroup
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, batch) -> ResultSet:
        """Answer ``batch`` in a single Algorithm Search pass.

        ``batch`` may be a :class:`QueryBatch`, a sequence of
        :class:`Query` descriptors, or a single :class:`Query`.
        Equivalent to ``execute(plan(batch))``.
        """
        return self.execute(self.plan(QueryBatch.coerce(batch)))

    def execute(self, plan: QueryPlan) -> ResultSet:
        """Run a previously computed :class:`QueryPlan`.

        A plan is valid against the annotation state it was planned
        over; if another batch's lazy refit has since swapped the tree's
        annotation (``annotation_token`` no longer matches), the batch
        is transparently re-planned first — cheap, driver-side, no
        communication — so a plan made before another pass can never
        fold against a stale annotation layout.  Every tree whose annotation is not the
        plan's is refit to it before the pass; the trees are its parts.
        """
        tree = self.tree
        if plan.annotation_token is not tree.semigroup:
            plan = self.plan(plan.batch)
        batch = plan.batch
        with tree.machine.scope() as metrics:
            # Lazy annotation refit: local work + one broadcast round, cached.
            annotation = plan.annotation
            for part in self.trees:
                if part.semigroup.name != annotation.name:
                    part._refit(annotation, label="query:refit")

            out = run_search(
                tree.machine,
                [
                    (part.construct_result.ns, part.ranked.to_rank_bounds(*batch.bounds))
                    for part in self.trees
                ],
                report=plan.report,
            )
            answers = self._demux(plan, out)
        return ResultSet(batch.queries, answers, metrics)

    # ------------------------------------------------------------------
    # the shared demultiplexing fold
    # ------------------------------------------------------------------
    def _fold_kernels(self, plan: QueryPlan) -> List[SemigroupKernel]:
        """Per fold group: the kernel its pieces ride and fold under.

        Leaf counts fold under :data:`~repro.semigroup.COUNT`'s kernel
        (their piece values are the ``nleaves`` column); an annotation
        fold under its slot of the annotation's kernel — a typed
        product's component, or an object column's slot, folded through
        the component's ``combine``.
        """
        kernel = plan.annotation.kernel
        return [
            COUNT.kernel if fold.slot is None else kernel.component(fold.slot)
            for fold in plan.folds
        ]

    def _demux(self, plan: QueryPlan, out) -> List[Any]:
        """Partial ``⊕`` values go home combined; pairs are only balanced.

        §5's two output modes need different things after Search, and
        each gets exactly that, in three rounds whatever the batch holds:

        * **fold side** (Theorem 4): ``⊕`` is commutative, so every rank
          folds its own hat and forest pieces per query first
          (:meth:`_fold_pieces`) and holds at most one ``query.piece``
          row per query it touched.  One routed round
          (``query:demux:fold``) sends that row to the query's *home*
          rank ``qid // ceil(m/p)`` — the rank that walked the hat for it
          in step 1 — where the same fold runs once more over at most
          ``p`` rows per query and the answer is complete.  A rank sends
          at most one row per query and receives at most ``p`` per query
          it owns: ``sent <= m`` and ``received <= p * ceil(m/p)``, so
          ``h < m + p``.  The driver runs the ``p`` rank folds as one:
          every rank's hat-then-forest pieces, rank-major and tagged
          with the rank, fold as runs of equal ``(rank, qid)`` in one
          :meth:`_fold_pieces` call, cut back into per-rank batches by
          the tag (dropped before the round, so the routed columns and
          bytes are those of folding rank by rank); the home ranks own
          disjoint qid ranges, so one more call over every inbox is
          their folds laid end to end.
        * **pair side** (Theorem 5): the pass's ``(qid, pid)`` pairs
          travel as the two-column ``dist.report_pair`` batches they
          already are through the count + prefix-sum balance
          (:func:`~repro.cgm.sort.route_balanced_cols`, rounds
          ``query:demux:pairs-count`` and ``query:demux:pairs``): no rank
          ends with more than ``ceil(k/p)`` of the ``k`` pairs, and
          nothing sorts them — the driver's one int64 key sort groups
          each query's ids, ascending, when it assembles the answers.
        """
        mach = self.tree.machine
        p, group, folds = mach.p, plan.group, plan.folds
        kernels = self._fold_kernels(plan)
        values: List[Any] = [
            [] if g < 0 else folds[g].semigroup.identity for g in group.tolist()
        ]

        # every rank's own fold at once: hat then forest, rank-major
        sels = [b for pair in zip(out.hat_selections, out.forest_selections) for b in pair]
        live = [b for b in sels if len(b)]
        for b in live:
            if b.cols["agg"].kernel != plan.annotation.kernel:
                raise ProtocolError(
                    f"selection aggregates under {b.cols['agg'].kernel.name}, "
                    f"the pass under {plan.annotation.kernel.name}"
                )
        # hat and forest rows name their node differently; the fold reads neither
        selected = RecordBatch.concat([b.drop("node", "element") for b in live] or sels[:1])
        rank = np.repeat(np.arange(p).repeat(2), [len(b) for b in sels])
        folded = self._fold_pieces(
            plan, kernels, self._pieces(plan, kernels, selected.with_col("__rank", rank))
        )
        cuts = np.searchsorted(folded.col("__rank"), np.arange(p + 1)).tolist()
        folded = folded.drop("__rank")
        partial = [folded.islice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
        chunk = max(1, -(-len(group) // p))
        homed = route_batches(
            mach,
            partial,
            [b.col("qid") // chunk for b in partial],
            label="query:demux:fold",
            template=partial[0],
        )
        # home ranks own disjoint qid ranges: one fold of every inbox is
        # the concatenation of the per-home folds
        totals = self._fold_pieces(plan, kernels, RecordBatch.concat(homed))
        qid = totals.col("qid")
        gid = group[qid]
        for g, kern in enumerate(kernels):
            pos = np.nonzero(gid == g)[0]
            decoded = kern.decode_list(_piece_values(totals.cols, kern)[pos])
            for q, v in zip(qid[pos].tolist(), decoded):
                values[q] = v

        balanced = route_balanced_cols(
            mach, out.report_pairs, "query:demux:pairs", out.report_pairs[0]
        )
        qid = np.concatenate([b.col("qid") for b in balanced])
        n = len(qid)
        if n:
            # one int64 key sort groups ids per query, each ascending:
            # ``qid`` packed above the id's offset from the smallest id,
            # or above its rank when the ids span too wide to fit
            pid = np.concatenate([b.col("pid") for b in balanced])
            low = int(pid.min())
            bits = (int(pid.max()) - low).bit_length()
            fits = bits + int(qid.max()).bit_length() <= 63
            if fits:
                offset = pid - low
            else:
                uniq, offset = np.unique(pid, return_inverse=True)
                bits = (len(uniq) - 1).bit_length()
            key = (qid << bits) | offset
            key.sort()
            offset = key & ((1 << bits) - 1)
            ids = (offset + low if fits else uniq[offset]).tolist()
            qid = key >> bits
            cuts = [0, *(np.nonzero(qid[1:] != qid[:-1])[0] + 1).tolist(), n]
            for q, lo, hi in zip(qid[cuts[:-1]].tolist(), cuts, cuts[1:]):
                values[q] = ids[lo:hi]
        return [
            mode.finalize(v, query)
            for mode, v, query in zip(plan.modes, values, plan.batch)
        ]

    def _pieces(self, plan: QueryPlan, kernels: list, batch: RecordBatch) -> RecordBatch:
        """The fold rows of one selection batch — hat and forest batches
        alike — as ``query.piece`` rows: ``qid``, an object ``val`` column
        when some group's kernel is an object one, a float64 ``kval``
        matrix when some group is typed (as wide as the widest kernel).

        One gather per fold group, from the typed ``nleaves`` column or
        the ``agg`` column's slot (:meth:`~repro.semigroup.kernels.KernelColumn.component_rows`),
        still encoded: no piece of a typed group touches a Python loop.
        A ``__rank`` tag on the selections rides along to the pieces.
        """
        group, folds = plan.group, plan.folds
        W = max((k.width for k in kernels if k.dtype is not object), default=0)
        qid = np.asarray(batch.col("qid"))
        gid = group[qid]
        idx = np.nonzero(gid >= 0)[0]
        q_col, gid = qid[idx], gid[idx]
        n = len(idx)
        cols: Dict[str, np.ndarray] = {"qid": q_col}
        if "__rank" in batch.cols:
            cols["__rank"] = batch.col("__rank")[idx]
        if any(k.dtype is object for k in kernels):
            cols["val"] = np.empty(n, dtype=object)
        if W:
            cols["kval"] = np.zeros((n, W), dtype=np.float64)
        if n:
            agg_col = batch.cols["agg"]
            for g, (fold, kern) in enumerate(zip(folds, kernels)):
                pos = np.nonzero(gid == g)[0]
                if not len(pos):
                    continue
                rows = idx[pos]
                _piece_values(cols, kern)[pos] = (
                    np.asarray(batch.col("nleaves"))[rows, None]
                    if fold.slot is None
                    else agg_col.component_rows(rows, fold.slot)
                )
        return RecordBatch("query.piece", cols, n)

    def _fold_pieces(
        self, plan: QueryPlan, kernels: list, pieces: RecordBatch
    ) -> RecordBatch:
        """``⊕`` of the pieces of each query: one row per distinct ``qid``,
        ascending — over every rank's own pieces before they are sent,
        and over what the home ranks received.

        Pieces tagged with a ``__rank`` column fold per ``(rank, qid)``
        instead, ordered by rank then qid, each row keeping its tag: the
        ``p`` ranks' own folds in one call.  A query's group is a
        function of its ``qid``, so one stable argsort cuts the rows into
        runs — each in the order its rows arrived, so each run's left
        fold is the one a rank would make alone — and each group's runs
        fold in one :func:`~repro.semigroup.kernels.fold_segments` call
        under the group's kernel.
        """
        n = len(pieces)
        if not n:
            return pieces
        key = q = pieces.col("qid")
        rank = pieces.cols.get("__rank")
        if rank is not None:
            key = rank * len(plan.group) + q
        order = np.argsort(key, kind="stable")
        pieces, key = pieces.take(order), key[order]
        starts = np.concatenate(([0], np.nonzero(key[1:] != key[:-1])[0] + 1))
        ends = np.append(starts[1:], n)
        run_q = pieces.col("qid")[starts]
        run_g = plan.group[run_q]
        val, kval = pieces.cols.get("val"), pieces.cols.get("kval")
        cols: Dict[str, np.ndarray] = {"qid": run_q}
        if rank is not None:
            cols["__rank"] = pieces.col("__rank")[starts]
        if val is not None:
            cols["val"] = np.empty(len(run_q), dtype=object)
        if kval is not None:
            cols["kval"] = np.zeros((len(run_q), kval.shape[1]), dtype=np.float64)
        for g, kern in enumerate(kernels):
            pos = np.nonzero(run_g == g)[0]
            if len(pos):
                _piece_values(cols, kern)[pos] = fold_segments(
                    kern, _piece_values(pieces.cols, kern), starts[pos], ends[pos]
                )
        return RecordBatch("query.piece", cols, len(run_q))


def _piece_values(cols: Dict[str, np.ndarray], kernel: SemigroupKernel) -> np.ndarray:
    """The piece matrix a group under ``kernel`` rides, as a writable view:
    the shared float64 ``kval`` matrix for a typed kernel, the object
    ``val`` column for an object one — the demux's one read of a storage
    kind (its layout sets the bytes of ``query:demux:fold``)."""
    if kernel.dtype is object:
        return cols["val"][:, None]
    return cols["kval"][:, : kernel.width]


def plan_batch(tree, batch: QueryBatch) -> QueryPlan:
    """Convenience: plan without executing (used by tests and tooling)."""
    return QueryEngine(tree).plan(batch)
