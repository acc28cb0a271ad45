"""Moderate-scale end-to-end smoke: the paper's regime at real batch sizes.

One test per mode at n = m = 1024, p = 16 — large enough that every code
path (splitting, replication, balancing, segmented folds across processor
boundaries) is exercised with thousands of records in flight.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DistributedRangeTree, validate_tree
from repro.query import aggregate, count, report
from repro.semigroup import moments_of_dim
from repro.seq import bf_aggregate, bf_count
from repro.workloads import clustered_points, selectivity_queries

N, P, D = 1024, 16, 2


@pytest.fixture(scope="module")
def big():
    pts = clustered_points(N, D, seed=7, clusters=5)
    tree = DistributedRangeTree.build(pts, p=P)
    qs = selectivity_queries(N, D, seed=8, selectivity=0.02)
    return pts, tree, qs


def test_structure_valid_at_scale(big):
    pts, tree, qs = big
    assert validate_tree(tree).ok


def test_counts_at_scale(big):
    pts, tree, qs = big
    got = tree.run([count(q) for q in qs]).values()
    rng = np.random.default_rng(0)
    for i in rng.choice(len(qs), size=64, replace=False):
        assert got[i] == bf_count(pts, qs[int(i)])


def test_report_at_scale_sampled(big):
    from repro.seq import bf_report

    pts, tree, qs = big
    sample = qs[:64]
    got = tree.run([report(q) for q in sample]).values()
    for ids, q in zip(got, sample):
        assert ids == bf_report(pts, q)


def test_moments_aggregate_at_scale():
    pts = clustered_points(512, D, seed=9)
    sg = moments_of_dim(0)
    tree = DistributedRangeTree.build(pts, p=8, semigroup=sg)
    qs = selectivity_queries(128, D, seed=10, selectivity=0.05)
    got = tree.run([aggregate(q) for q in qs]).values()
    for g, q in zip(got[:32], qs[:32]):
        cnt, s, ss = g
        ecnt, es, ess = bf_aggregate(pts, q, sg)
        assert cnt == ecnt
        assert s == pytest.approx(es)
        assert ss == pytest.approx(ess)


def test_rounds_small_and_fixed_at_scale(big):
    pts, tree, qs = big
    tree.reset_metrics()
    tree.run([count(q) for q in qs])
    # search (3) + fold (5) + boundary allgather (1) = single digits, always
    assert tree.metrics.rounds <= 12
