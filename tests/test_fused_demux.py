"""The demux's fused fold equals folding rank by rank, then home by home.

Theorem 4's demux has every rank fold its own pieces of a query and send
one row per query to the query's home rank, which folds again.  The
engine runs the ``p`` rank folds as one segmented fold keyed by
``(rank, qid)`` and the home fold once; :func:`reference_fold` below is
the rank-by-rank algorithm, written out.  Answers (float sums included)
and the ``query:demux:fold`` round must be equal by ``==``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

import repro.query.engine as engine_mod
from repro.cgm.collectives import route_batches
from repro.cgm.columns import RecordBatch
from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree
from repro.dist.search import run_search
from repro.geometry import Box
from repro.query import QueryBatch, aggregate, count, report, top_k
from repro.query.engine import QueryEngine
from repro.semigroup import (
    id_set,
    min_of_dim,
    product_semigroup,
    sum_of_dim,
    top_k_ids,
)
from repro.semigroup.group import sum_group
from repro.workloads import selectivity_queries

FOLD_LABEL = "query:demux:fold"


def reference_fold(engine: QueryEngine, plan) -> tuple:
    """Today's algorithm rank by rank: per rank ``_pieces`` of its hat and
    forest selections + ``_fold_pieces``, ``route_batches`` home, then
    ``_fold_pieces`` per home rank.  Runs the plan's Search pass again
    (the plan must need no refit); returns ``{qid: answer}`` for every
    folding query and the fold round's ``StepRecord``."""
    assert not plan.needs_refit
    mach = engine.tree.machine
    p = mach.p
    out = run_search(
        mach,
        [
            (part.construct_result.ns, part.ranked.to_rank_bounds(*plan.batch.bounds))
            for part in engine.trees
        ],
        report=plan.report,
    )
    kernels = engine._fold_kernels(plan)
    partial = [
        engine._fold_pieces(
            plan,
            kernels,
            RecordBatch.concat(
                [
                    engine._pieces(plan, kernels, out.hat_selections[r]),
                    engine._pieces(plan, kernels, out.forest_selections[r]),
                ]
            ),
        )
        for r in range(p)
    ]
    chunk = max(1, -(-len(plan.group) // p))
    homed = route_batches(
        mach,
        partial,
        [b.col("qid") // chunk for b in partial],
        label=FOLD_LABEL,
        template=partial[0],
    )
    step = mach.metrics.steps[-1]
    totals = RecordBatch.concat([engine._fold_pieces(plan, kernels, b) for b in homed])
    values = {
        q: plan.folds[g].semigroup.identity
        for q, g in enumerate(plan.group.tolist())
        if g >= 0
    }
    qid = totals.col("qid")
    for g, kern in enumerate(kernels):
        pos = np.nonzero(plan.group[qid] == g)[0]
        decoded = kern.decode_list(engine_mod._piece_values(totals.cols, kern)[pos])
        values.update(zip(qid[pos].tolist(), decoded))
    answers = {
        q: plan.modes[q].finalize(v, plan.batch[q]) for q, v in values.items()
    }
    return answers, step


def assert_fused_equals_reference(engine: QueryEngine, queries: list) -> None:
    batch = QueryBatch(queries)
    rs = engine.run(batch)
    (fused,) = [s for s in rs.metrics.comm_steps() if s.label == FOLD_LABEL]
    want, ref = reference_fold(engine, engine.plan(batch))
    got = rs.values()
    assert {q: got[q] for q in want} == want
    assert (fused.sent, fused.received, fused.sent_bytes) == (
        ref.sent,
        ref.received,
        ref.sent_bytes,
    )


def _points(n: int, seed: int) -> np.ndarray:
    # random doubles: their sums are not exact, so a reassociated float
    # sum would differ in the last ulp
    return np.random.default_rng(seed).random((n, 2))


def _boxes(seed: int, m: int) -> list:
    rng = np.random.default_rng(seed)
    narrow = selectivity_queries(m, 2, seed=seed, selectivity=0.1)
    # from below every point past two thirds of the square: the hat
    # resolves part of these, so hat pieces fold beside forest pieces
    wide = [
        Box(list(zip(rng.uniform(-0.1, -0.01, 2).tolist(), rng.uniform(0.7, 1.05, 2).tolist())))
        for _ in range(m // 4)
    ]
    return narrow + wide


#: a box no rank's walk touches: its answer is the group's identity
NOWHERE = Box([(5.0, 6.0), (5.0, 6.0)])


def _mixed(boxes: list, semigroups: list) -> list:
    makers = [count, report, lambda b: top_k(b, 2)] + [
        (lambda sg: lambda b: aggregate(b, sg))(sg) for sg in semigroups
    ]
    return [makers[i % len(makers)](b) for i, b in enumerate(boxes)] + [
        count(NOWHERE),
        aggregate(NOWHERE, semigroups[0]),
    ]


class TestFusedDemux:
    @pytest.mark.parametrize(
        "backend,p", [("serial", 1), ("serial", 2), ("serial", 8), ("process", 2)]
    )
    def test_equals_rank_by_rank_fold(self, backend, p):
        pts = _points(1000, seed=80)
        boxes = _boxes(81, 48)
        with DistributedRangeTree.build(pts, p=p, backend=backend) as tree:
            engine = tree.engine
            # typed and object groups side by side: float sum, min, counts,
            # top-k ids and id sets (object kernels), each lazily refit in
            assert_fused_equals_reference(
                engine, _mixed(boxes, [sum_of_dim(0), min_of_dim(1), top_k_ids(3), id_set()])
            )
            # a product semigroup as a query's semigroup, after that refit
            assert_fused_equals_reference(
                engine,
                _mixed(boxes, [product_semigroup([sum_of_dim(1), min_of_dim(0)]), sum_of_dim(0)]),
            )

    @pytest.mark.parametrize("p", [1, 8])
    def test_empty_batch_and_untouched_queries(self, p):
        with DistributedRangeTree.build(_points(200, seed=82), p=p) as tree:
            assert_fused_equals_reference(tree.engine, [])
            assert_fused_equals_reference(
                tree.engine, [count(NOWHERE), aggregate(NOWHERE, sum_of_dim(0))]
            )

    def test_multi_bucket_dynamic_tree(self):
        pts = _points(300, seed=83)
        with DynamicDistributedRangeTree.build(
            pts[:200], p=4, semigroup=sum_group(0), flush_threshold=8
        ) as dyn:
            for row in pts[200:].tolist():
                dyn.insert(row)
            buckets = [dyn._buckets[level].tree for level in sorted(dyn._buckets, reverse=True)]
            assert len(buckets) >= 3
            engine = QueryEngine(*buckets)
            assert_fused_equals_reference(
                engine, _mixed(_boxes(84, 32), [sum_of_dim(1), min_of_dim(0), id_set()])
            )

    def test_each_group_folds_at_most_twice_per_pass(self, monkeypatch):
        calls: Counter = Counter()
        real = engine_mod.fold_segments

        def counted(kernel, *args):
            calls[kernel.name] += 1
            return real(kernel, *args)

        groups = [sum_of_dim(0), min_of_dim(1), top_k_ids(3), id_set()]
        queries = _mixed(_boxes(85, 64), groups)
        with DistributedRangeTree.build(_points(1000, seed=86), p=8) as tree:
            tree.run(queries)  # the lazy refit, outside the count
            monkeypatch.setattr(engine_mod, "fold_segments", counted)
            tree.run(queries)
        # leaf counts, top_k (its own semigroup) and the four aggregates
        assert len(calls) == 6
        assert all(0 < n <= 2 for n in calls.values()), calls
