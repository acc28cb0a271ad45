"""Property-based end-to-end tests: distributed tree vs brute-force oracle.

These are the highest-value tests in the suite: hypothesis generates
arbitrary point clouds (with duplicates, collinear points, extreme
clustering) and arbitrary query boxes, and the entire distributed pipeline
(Construct -> Search -> both output modes) must agree with a linear scan.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dist import DistributedRangeTree
from repro.geometry import Box, PointSet
from repro.query import aggregate, count, report
from repro.semigroup import sum_of_dim
from repro.seq import bf_aggregate, bf_count, bf_report

coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)


def points_strategy(d: int, max_n: int = 24):
    return st.lists(
        st.tuples(*([coord] * d)), min_size=1, max_size=max_n
    ).map(PointSet)


def box_strategy(d: int):
    def mk(vals):
        bounds = []
        for i in range(d):
            a, b = sorted((vals[2 * i], vals[2 * i + 1]))
            bounds.append((a, b))
        return Box(bounds)

    return st.tuples(*([coord] * (2 * d))).map(mk)


COMMON = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestDistributedMatchesOracle:
    @given(points_strategy(1), st.lists(box_strategy(1), min_size=1, max_size=6))
    @settings(**COMMON)
    def test_1d(self, pts, boxes):
        tree = DistributedRangeTree.build(pts, p=2)
        assert tree.run([count(q) for q in boxes]).values() == [
            bf_count(pts, b) for b in boxes
        ]
        assert tree.run([report(q) for q in boxes]).values() == [
            bf_report(pts, b) for b in boxes
        ]

    @given(points_strategy(2), st.lists(box_strategy(2), min_size=1, max_size=6))
    @settings(**COMMON)
    def test_2d_p4(self, pts, boxes):
        tree = DistributedRangeTree.build(pts, p=4)
        assert tree.run([count(q) for q in boxes]).values() == [
            bf_count(pts, b) for b in boxes
        ]
        assert tree.run([report(q) for q in boxes]).values() == [
            bf_report(pts, b) for b in boxes
        ]

    @given(points_strategy(3, max_n=16), st.lists(box_strategy(3), min_size=1, max_size=4))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_3d(self, pts, boxes):
        tree = DistributedRangeTree.build(pts, p=2)
        assert tree.run([count(q) for q in boxes]).values() == [
            bf_count(pts, b) for b in boxes
        ]

    @given(points_strategy(2), box_strategy(2))
    @settings(**COMMON)
    def test_aggregate_sum(self, pts, box):
        sg = sum_of_dim(0)
        tree = DistributedRangeTree.build(pts, p=4, semigroup=sg)
        got = tree.run([aggregate(box)]).values()[0]
        assert got == pytest.approx(bf_aggregate(pts, box, sg))

    @given(points_strategy(2))
    @settings(**COMMON)
    def test_full_domain_counts_n(self, pts):
        tree = DistributedRangeTree.build(pts, p=4)
        assert tree.run([count(Box.full(2, 0.0, 1.0))]).values() == [pts.n]


class TestStructuralInvariants:
    @given(points_strategy(2, max_n=32))
    @settings(**COMMON)
    def test_forest_groups_partition_structure(self, pts):
        """Forest ids are globally unique and group sizes near-equal."""
        tree = DistributedRangeTree.build(pts, p=4)
        shape = tree.hat.shape
        ids = [(shape.location[i], shape.dim[i], shape.tree[i]) for i in np.flatnonzero(shape.leaf)]
        assert len(ids) == len(set(ids))
        sizes = tree.construct_result.forest_group_sizes()
        assert max(sizes) <= 2 * max(1, min(sizes))

    @given(points_strategy(2, max_n=32))
    @settings(**COMMON)
    def test_hat_leaves_match_forest_elements(self, pts):
        tree = DistributedRangeTree.build(pts, p=4)
        shape = tree.hat.shape
        hat_ids = {
            (int(shape.location[i]), int(shape.dim[i]), int(shape.tree[i]))
            for i in np.nonzero(shape.leaf)[0]
        }
        forest_ids = {
            (rank, j, t)
            for rank, store in enumerate(tree.forest_store)
            for j, stack in store.items()
            for t in range(stack.shape[0])
        }
        assert hat_ids == forest_ids


class TestSubqueryBalance:
    """Theorem 3: after replication no processor serves more than
    ``c·ceil(|Q'|/p)`` subqueries, with ``c = 3``.

    Where the 3 comes from: with ``q = ceil(|Q'|/p)``, step 2 gives owner
    ``j`` ``c_j = max(1, ceil(d_j / q))`` copies, so ``Σ c_j < Σ d_j/q + p
    ≤ 2p`` and step 4 hands each copy at most ``ceil(d_j / c_j) ≤ q``
    subqueries.  :func:`~repro.cgm.loadbalance.assign_copies_round_robin`
    keeps copy 0 at the owner and deals the other ``Σ (c_j − 1) ≤ p − 1``
    copies to consecutive cursor positions, skipping an owner's own slot
    at most once per copy — fewer than ``2p`` positions, so a rank is
    dealt at most two copies besides its own group's: three copies of at
    most ``q`` subqueries each.
    """

    @given(
        p=st.sampled_from([2, 4, 8]),
        parts=st.sampled_from([1, 3]),
        hot=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(**COMMON)
    def test_no_rank_serves_more_than_three_fair_shares(self, p, parts, hot, seed):
        from repro.cgm import Machine
        from repro.dist import run_search
        from repro.workloads import uniform_points

        from tests.helpers import random_boxes

        m = 48
        with Machine(p) as mach:
            trees = [
                DistributedRangeTree.build(uniform_points(64, 2, seed=seed + b), machine=mach)
                for b in range(parts)
            ]
            if hot:
                # ranks 0..2 in dimension 0: every query continues in the
                # first primary element of every part, so all of Q' is
                # owned by rank 0 before replication
                bounds = [(np.tile([0, 0], (m, 1)), np.tile([2, 63], (m, 1)))] * parts
            else:
                lo, hi = Box.stack(random_boxes(np.random.default_rng(seed), m, 2))
                bounds = [t.ranked.to_rank_bounds(lo, hi) for t in trees]
            out = run_search(mach, [(t.construct_result.ns, b) for t, b in zip(trees, bounds)])
        share = -(-out.total_subqueries // p)
        assert max(out.subqueries_per_proc) <= 3 * share, (out.demands, out.subqueries_per_proc)
        if hot and p > 2:
            # the bound is replication's doing: the owners' demand breaks it
            assert max(out.demands) > 3 * share
