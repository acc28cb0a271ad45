"""Tests for Algorithm Search and the two output modes (Theorems 3-5)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dist import DistributedRangeTree
from repro.geometry import Box
from repro.query import aggregate, count, report
from repro.semigroup import id_set, max_of_dim, min_of_dim, sum_of_dim
from repro.seq import bf_aggregate, bf_count, bf_report
from repro.workloads import (
    clustered_points,
    grid_points,
    hotspot_queries,
    selectivity_queries,
    uniform_points,
)

from tests.helpers import grid_of_boxes, random_boxes, search_summary


def build(pts, p=8, **kw):
    return DistributedRangeTree.build(pts, p=p, **kw)


class TestCorrectnessMatrix:
    """Distributed answers == brute force, across dims / p / workloads."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_counts_and_reports(self, d, p):
        pts = uniform_points(48, d, seed=d * 10 + p)
        tree = build(pts, p=p)
        qs = selectivity_queries(24, d, seed=99, selectivity=0.1)
        assert tree.run([count(q) for q in qs]).values() == [
            bf_count(pts, q) for q in qs
        ]
        assert tree.run([report(q) for q in qs]).values() == [
            bf_report(pts, q) for q in qs
        ]

    def test_grid_duplicates(self):
        pts = grid_points(64, 2, seed=5, cells=4)
        tree = build(pts, p=4)
        rng = np.random.default_rng(6)
        qs = random_boxes(rng, 30, 2)
        assert tree.run([count(q) for q in qs]).values() == [
            bf_count(pts, q) for q in qs
        ]
        assert tree.run([report(q) for q in qs]).values() == [
            bf_report(pts, q) for q in qs
        ]

    def test_clustered_hotspot(self):
        pts = clustered_points(96, 2, seed=7)
        tree = build(pts, p=8)
        qs = hotspot_queries(40, 2, seed=8, centre=0.5, half_width=0.2)
        assert tree.run([count(q) for q in qs]).values() == [
            bf_count(pts, q) for q in qs
        ]

    def test_band_queries(self):
        pts = uniform_points(64, 2, seed=9)
        tree = build(pts, p=8)
        qs = grid_of_boxes(2)
        assert tree.run([report(q) for q in qs]).values() == [
            bf_report(pts, q) for q in qs
        ]

    def test_empty_and_full_queries(self):
        pts = uniform_points(32, 2, seed=11)
        tree = build(pts, p=4)
        empty = Box.full(2, 5.0, 6.0)
        full = Box.full(2, -1.0, 2.0)
        assert tree.run([count(empty), count(full)]).values() == [0, 32]
        rep = tree.run([report(empty), report(full)]).values()
        assert rep[0] == [] and rep[1] == list(range(32))

    def test_single_query_batch(self):
        pts = uniform_points(32, 2, seed=12)
        tree = build(pts, p=4)
        q = Box([(0.2, 0.7), (0.3, 0.8)])
        assert tree.run([count(q)]).values() == [bf_count(pts, q)]

    def test_empty_batch(self):
        tree = build(uniform_points(16, 2, seed=13), p=4)
        assert tree.run([]).values() == []

    def test_large_batch_m_equals_n(self):
        """The paper's regime: m = O(n) queries in one batch."""
        pts = uniform_points(64, 2, seed=14)
        tree = build(pts, p=8)
        qs = selectivity_queries(64, 2, seed=15, selectivity=0.05)
        assert tree.run([count(q) for q in qs]).values() == [
            bf_count(pts, q) for q in qs
        ]

    @pytest.mark.parametrize("replication", ["direct", "doubling"])
    def test_replication_strategies_agree(self, replication):
        pts = uniform_points(48, 2, seed=16)
        tree = build(pts, p=8)
        qs = hotspot_queries(32, 2, seed=17)
        _metrics, counts, _rows = search_summary(tree, qs, replication)
        assert counts == [bf_count(pts, q) for q in qs]


class TestAssociativeMode:
    def test_sum(self):
        pts = uniform_points(48, 2, seed=20)
        sg = sum_of_dim(0)
        tree = build(pts, p=4, semigroup=sg)
        qs = selectivity_queries(20, 2, seed=21, selectivity=0.15)
        got = tree.run([aggregate(q) for q in qs]).values()
        for g, q in zip(got, qs):
            assert g == pytest.approx(bf_aggregate(pts, q, sg))

    def test_min_max(self):
        pts = uniform_points(48, 2, seed=22)
        for sg in (min_of_dim(1), max_of_dim(0)):
            tree = build(pts, p=4, semigroup=sg)
            qs = selectivity_queries(15, 2, seed=23, selectivity=0.2)
            got = tree.run([aggregate(q) for q in qs]).values()
            exp = [bf_aggregate(pts, q, sg) for q in qs]
            assert got == exp

    def test_empty_query_yields_identity(self):
        sg = min_of_dim(0)
        tree = build(uniform_points(32, 2, seed=24), p=4, semigroup=sg)
        got = tree.run([aggregate(Box.full(2, 7.0, 8.0))]).values()
        assert got == [math.inf]

    def test_idset_matches_report(self):
        pts = uniform_points(32, 2, seed=25)
        tree = build(pts, p=4, semigroup=id_set())
        qs = selectivity_queries(10, 2, seed=26, selectivity=0.2)
        sets = tree.run([aggregate(q) for q in qs]).values()
        reports = tree.run([report(q) for q in qs]).values()
        assert [sorted(s) for s in sets] == reports

    def test_3d_aggregate(self):
        pts = uniform_points(32, 3, seed=27)
        sg = sum_of_dim(2)
        tree = build(pts, p=4, semigroup=sg)
        qs = selectivity_queries(12, 3, seed=28, selectivity=0.3)
        got = tree.run([aggregate(q) for q in qs]).values()
        for g, q in zip(got, qs):
            assert g == pytest.approx(bf_aggregate(pts, q, sg))


class TestSearchInternals:
    def test_demand_accounting(self):
        pts = uniform_points(64, 2, seed=30)
        tree = build(pts, p=8)
        qs = selectivity_queries(32, 2, seed=31, selectivity=0.1)
        out = tree.search(qs)
        assert len(out.demands) == 8
        assert sum(out.demands) == out.total_subqueries
        assert all(c >= 1 for c in out.copy_counts)

    def test_subquery_load_balanced(self):
        """Search step 4: per-proc subquery load <= ~|Q'|/p + slack."""
        pts = uniform_points(128, 2, seed=32)
        tree = build(pts, p=8)
        qs = hotspot_queries(64, 2, seed=33)
        out = tree.search(qs)
        if out.total_subqueries:
            cap = -(-out.total_subqueries // 8)
            assert max(out.subqueries_per_proc) <= 2 * cap

    def test_hotspot_triggers_replication(self):
        """All queries aimed at one region must force extra copies."""
        pts = uniform_points(128, 2, seed=34)
        tree = build(pts, p=8)
        qs = hotspot_queries(128, 2, seed=35, half_width=0.02)
        out = tree.search(qs)
        if out.total_subqueries >= 16:
            assert max(out.copy_counts) > 1

    def test_uniform_queries_one_copy_each(self):
        pts = uniform_points(128, 2, seed=36)
        tree = build(pts, p=4)
        qs = selectivity_queries(64, 2, seed=37, selectivity=0.02)
        out = tree.search(qs)
        # uniform demand: copy counts stay tiny
        assert max(out.copy_counts) <= 2

    def test_constant_rounds_in_n(self):
        """Theorems 3-5: round counts independent of n (fixed d, p, mode)."""
        rounds = []
        for n in (32, 64, 128):
            pts = uniform_points(n, 2, seed=38)
            tree = build(pts, p=4)
            tree.reset_metrics()
            qs = selectivity_queries(n, 2, seed=39, selectivity=0.1)
            tree.run([count(q) for q in qs])
            rounds.append(tree.metrics.rounds)
        assert len(set(rounds)) == 1, rounds


def pairs_per_rank(rs) -> tuple:
    """Output pairs each rank holds after the demux.

    The ``query:demux:pairs`` round *is* Theorem 5's redistribution: it
    carries the batch's ``(qid, pid)`` output pairs and nothing else, so
    what each rank receives there is its final share.
    """
    return next(
        s.received
        for s in rs.metrics.comm_steps()
        if s.label == "query:demux:pairs"
    )


class TestReportBalance:
    def test_output_pairs_balanced(self):
        """Theorem 5: report mode ends with <= ceil(k/p) pairs per proc."""
        pts = uniform_points(128, 2, seed=40)
        tree = build(pts, p=8)
        qs = selectivity_queries(32, 2, seed=41, selectivity=0.3)
        rs = tree.run([report(q) for q in qs])
        sizes = pairs_per_rank(rs)
        k = sum(sizes)
        assert k == sum(len(ids) for ids in rs.values()) > 0
        assert max(sizes) <= -(-k // 8)

    def test_skewed_queries_still_balanced(self):
        pts = clustered_points(128, 2, seed=42, clusters=2)
        tree = build(pts, p=8)
        qs = hotspot_queries(16, 2, seed=43, half_width=0.4)
        rs = tree.run([report(q) for q in qs])
        sizes = pairs_per_rank(rs)
        k = sum(sizes)
        assert k == sum(len(ids) for ids in rs.values()) > 0
        assert max(sizes) <= -(-k // 8)

    def test_report_ids_deduplicated_nowhere(self):
        """Every (query, point) pair appears exactly once."""
        pts = uniform_points(48, 2, seed=44)
        tree = build(pts, p=4)
        qs = selectivity_queries(16, 2, seed=45, selectivity=0.2)
        rep = tree.run([report(q) for q in qs]).values()
        for ids, q in zip(rep, qs):
            assert len(ids) == len(set(ids))
            assert ids == bf_report(pts, q)
