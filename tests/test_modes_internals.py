"""White-box tests for the output-mode machinery (the engine's demux fold)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgm.columns import RecordBatch
from repro.dist import DistributedRangeTree
from repro.geometry import Box
from repro.query import QueryBatch, aggregate, count, report
from repro.query.engine import QueryEngine
from repro.semigroup import Semigroup
from repro.semigroup.kernels import ObjectKernel
from repro.seq import bf_count, bf_report
from repro.workloads import selectivity_queries, uniform_points

PLAIN = Semigroup("plain-add", lambda pid, coords: 1, lambda a, b: a + b, 0)


@pytest.fixture(scope="module")
def fold():
    """Per-rank ``(qid, value)`` pieces -> the emission list, through the
    engine's own fold (`QueryEngine._fold_pieces`) over a ``combine``
    group: once per rank, then once over what the ranks would send home."""
    with DistributedRangeTree.build(uniform_points(8, 1, seed=69), p=2, semigroup=PLAIN) as tree:
        engine = QueryEngine(tree)
        plan = engine.plan(QueryBatch([aggregate(Box.full(1, 0.0, 1.0))] * 12))
        kernels = engine._fold_kernels(plan)
        assert kernels == [PLAIN.kernel] and isinstance(PLAIN.kernel, ObjectKernel)

        def pieces(rows):
            cols = {
                "qid": np.array([q for q, _v in rows], dtype=np.int64),
                "val": np.array([v for _q, v in rows], dtype=object).reshape(-1, 1),
            }
            return RecordBatch("query.piece", cols, len(rows))

        def run(per_rank):
            partial = [engine._fold_pieces(plan, kernels, pieces(r)) for r in per_rank]
            home = engine._fold_pieces(plan, kernels, RecordBatch.concat(partial))
            return list(zip(home.col("qid").tolist(), home.col("val")[:, 0].tolist()))

        yield run


class TestFoldByQuery:
    def test_single_query_many_pieces(self, fold):
        # query 0's pieces scattered over every processor
        emitted = fold([[(0, 1)], [(0, 2)], [(0, 3)], [(0, 4)]])
        assert emitted == [(0, 10)]

    def test_many_queries_one_processor(self, fold):
        emitted = fold([[(q, q + 1) for q in range(6)], [], [], []])
        assert emitted == [(q, q + 1) for q in range(6)]

    def test_empty_output(self, fold):
        assert fold([[], []]) == []

    def test_noncommutative_use_rejected_by_convention(self, fold):
        """The fold assumes a commutative op — document via behaviour:
        with a commutative op the result is piece-order independent,
        whether a rank holds one piece of the query or several."""
        a = fold([[(1, 2)], [(1, 5), (0, 1), (1, 11)]])
        b = fold([[(1, 11), (1, 2)], [(0, 1)], [(1, 5)]])
        assert a == b == [(0, 1), (1, 18)]


class TestBatchedCountsEndToEnd:
    def test_counts_sum_hat_and_forest_pieces(self):
        pts = uniform_points(128, 2, seed=70)
        tree = DistributedRangeTree.build(pts, p=8)
        qs = selectivity_queries(64, 2, seed=71, selectivity=0.2)
        out = tree.search(qs)
        # both piece sources are live in this workload
        assert sum(len(b) for b in out.hat_selections)
        assert sum(len(b) for b in out.forest_selections)
        got = tree.run([count(q) for q in qs]).values()
        assert got == [bf_count(pts, q) for q in qs]


class TestReportPairsEndToEnd:
    def test_hat_expansion_needs_a_reporting_query(self):
        pts = uniform_points(64, 2, seed=72)
        tree = DistributedRangeTree.build(pts, p=4)
        # the full box selects hat nodes; only a reporting query's walk
        # names the forest elements tiling them, which is what in-pass
        # expansion routes to the owners — the engine marks report modes.
        full = Box.full(2, -1.0, 2.0)
        def expansions(out) -> int:
            routed = [
                s for s in tree.metrics.comm_steps() if s.label == "search:route-subqueries"
            ][-1]
            return sum(routed.sent) - out.total_subqueries

        bare = tree.search([full])
        assert expansions(bare) == 0
        tiled = tree.search([full], report=True)
        assert expansions(tiled) == 4
        assert sum(len(b) for b in bare.report_pairs) == 0
        assert sum(len(b) for b in tiled.report_pairs) == 64
        assert len(tree.run(report(full)).value(0)) == 64

    def test_pair_multiset_exact(self):
        pts = uniform_points(96, 2, seed=73)
        tree = DistributedRangeTree.build(pts, p=8)
        qs = selectivity_queries(24, 2, seed=74, selectivity=0.15)
        rs = tree.run([report(q) for q in qs])
        flat = sorted((i, pid) for i, ids in enumerate(rs.values()) for pid in ids)
        expected = sorted(
            (i, pid) for i, q in enumerate(qs) for pid in bf_report(pts, q)
        )
        assert flat == expected
