"""Tests for the distributed-tree extensions: re-annotation and the
single-query convenience API."""

from __future__ import annotations

import pytest

from repro.dist import DistributedRangeTree
from repro.geometry import Box
from repro.query import aggregate, count, report
from repro.semigroup import id_set, max_of_dim, sum_of_dim
from repro.seq import bf_aggregate, bf_count, bf_report
from repro.workloads import selectivity_queries, uniform_points


@pytest.fixture
def built():
    pts = uniform_points(64, 2, seed=50)
    tree = DistributedRangeTree.build(pts, p=4)
    qs = selectivity_queries(16, 2, seed=51, selectivity=0.15)
    return pts, tree, qs


class TestReannotate:
    def test_swaps_aggregate_function(self, built):
        pts, tree, qs = built
        sg = sum_of_dim(0)
        tree.reannotate(sg)
        got = tree.run([aggregate(q) for q in qs]).values()
        for g, q in zip(got, qs):
            assert g == pytest.approx(bf_aggregate(pts, q, sg))

    def test_counts_unchanged_by_reannotation(self, built):
        pts, tree, qs = built
        before = tree.run([count(q) for q in qs]).values()
        tree.reannotate(max_of_dim(1))
        assert tree.run([count(q) for q in qs]).values() == before

    def test_reports_unchanged_by_reannotation(self, built):
        pts, tree, qs = built
        before = tree.run([report(q) for q in qs]).values()
        tree.reannotate(sum_of_dim(1))
        assert tree.run([report(q) for q in qs]).values() == before

    def test_multiple_reannotations(self, built):
        pts, tree, qs = built
        for sg in (sum_of_dim(0), max_of_dim(0), id_set()):
            tree.reannotate(sg)
            got = tree.run([aggregate(q) for q in qs]).values()
            for g, q in zip(got, qs):
                exp = bf_aggregate(pts, q, sg)
                if isinstance(exp, float):
                    assert g == pytest.approx(exp)
                else:
                    assert g == exp

    def test_cheaper_than_rebuild(self, built):
        """Re-annotation must not sort or route: zero *new* sort rounds."""
        pts, tree, qs = built
        tree.reannotate(sum_of_dim(0))
        labels = [s.label for s in tree.metrics.steps if s.kind == "comm"]
        assert labels == ["reannotate:roots"], labels

    def test_hat_aggregates_refreshed(self, built):
        pts, tree, qs = built
        sg = sum_of_dim(0)
        tree.reannotate(sg)
        hat = tree.hat
        root = 0
        while hat.shape.desc[root] >= 0:
            root = hat.shape.desc[root]
        total = bf_aggregate(pts, Box.full(2, -10.0, 10.0), sg)
        assert hat.agg(root) == pytest.approx(total)


class TestSingleQueryAPI:
    def test_matches_batch(self, built):
        pts, tree, qs = built
        for q in qs[:5]:
            assert tree.run(count(q)).value(0) == bf_count(pts, q)
            assert tree.run(report(q)).value(0) == bf_report(pts, q)

    def test_single_query_spreads_over_processors(self):
        """One broad query must fan its subqueries across several owners."""
        pts = uniform_points(256, 2, seed=52)
        tree = DistributedRangeTree.build(pts, p=8)
        # a thin slab: contained in dim 0 hat nodes early, but split finely
        # in dim 1 -> touches many forest elements
        q = Box([(0.0, 1.0), (0.37, 0.43)])
        out = tree.search([q])
        touched = sum(1 for c in out.subqueries_per_proc if c > 0)
        assert out.total_subqueries >= 2
        assert touched >= 2
        assert tree.run(count(q)).value(0) == bf_count(pts, q)

    def test_aggregate_single(self, built):
        pts, tree, qs = built
        tree.reannotate(sum_of_dim(1))
        q = qs[0]
        assert tree.run(aggregate(q)).value(0) == pytest.approx(
            bf_aggregate(pts, q, sum_of_dim(1))
        )
