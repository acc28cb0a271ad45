"""White-box tests for the output-mode machinery (repro.dist.modes)."""

from __future__ import annotations

from repro.cgm import Machine
from repro.dist import DistributedRangeTree
from repro.dist.modes import (
    accumulate_runs,
    fold_sorted_runs,
    resolve_sorted_runs,
)
from repro.geometry import Box
from repro.query import count, report
from repro.seq import bf_count, bf_report
from repro.workloads import selectivity_queries, uniform_points


def add(a, b):
    return a + b


def fold(mach: Machine, ordered):
    """Per-rank qid-sorted ``(qid, value)`` pieces -> ``{qid: total}`` plus
    the emission list (to check every query is emitted exactly once)."""
    out = fold_sorted_runs(mach, ordered, add, 0, "t")
    # the two-stage form the engine uses must agree with the one-call form
    staged = resolve_sorted_runs(
        mach, [accumulate_runs(o, add) for o in ordered], add, 0, "t"
    )
    assert staged == out
    return [(qid, v) for box in out for qid, v in box]


class TestFoldByQuery:
    def test_single_query_many_pieces(self):
        mach = Machine(4)
        # query 0's pieces scattered over every processor
        emitted = fold(mach, [[(0, 1)], [(0, 2)], [(0, 3)], [(0, 4)]])
        assert emitted == [(0, 10)]

    def test_many_queries_one_processor(self):
        mach = Machine(4)
        emitted = fold(mach, [[(q, q + 1) for q in range(6)], [], [], []])
        assert dict(emitted) == {q: q + 1 for q in range(6)}
        assert len(emitted) == 6

    def test_query_block_spanning_processor_boundary(self):
        """After sorting, one query's run may straddle processors; the
        segmented sum and last-of-run logic must still fold it once."""
        mach = Machine(2)
        emitted = fold(mach, [[(7, 1)] * 5, [(7, 1)] * 5])
        assert emitted == [(7, 10)]

    def test_empty_output(self):
        mach = Machine(2)
        assert fold_sorted_runs(mach, [[], []], add, 0, "t") == [[], []]

    def test_noncommutative_use_rejected_by_convention(self):
        """The run-fold assumes a commutative op — document via behaviour:
        with a commutative op the result is piece-order independent."""
        mach = Machine(3)
        a = fold(mach, [[(1, 2)], [(1, 5)], [(1, 11)]])
        b = fold(mach, [[(1, 11)], [(1, 2)], [(1, 5)]])
        assert a == b == [(1, 18)]


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
