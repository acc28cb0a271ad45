"""Broad integration matrix: every structure x every distribution x modes.

One parametrised sweep that cross-validates the full stack (sequential
range tree, layered tree, k-D tree, dominance pipeline, dynamic tree and
the distributed tree) against the brute-force oracle on every synthetic
distribution the workload module offers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgm import Machine
from repro.dist import DistributedRangeTree, validate_tree
from repro.errors import CapacityExceeded
from repro.query import aggregate, count, report
from repro.semigroup import sum_of_dim
from repro.semigroup.group import count_group
from repro.seq import (
    DominanceRangeIndex,
    DynamicRangeTree,
    KDTree,
    LayeredSequentialRangeTree,
    SequentialRangeTree,
    bf_aggregate,
    bf_count,
    bf_report,
)
from repro.workloads import POINT_DISTRIBUTIONS, make_points

from tests.helpers import random_boxes

DISTS = sorted(POINT_DISTRIBUTIONS)


@pytest.mark.parametrize("dist_name", DISTS)
@pytest.mark.parametrize("d", [1, 2])
class TestEveryStructureEveryDistribution:
    def _fixtures(self, dist_name, d):
        pts = make_points(dist_name, 56, d, seed=hash((dist_name, d)) % 1000)
        rng = np.random.default_rng(7)
        boxes = random_boxes(rng, 12, d)
        return pts, boxes

    def test_sequential_structures(self, dist_name, d):
        pts, boxes = self._fixtures(dist_name, d)
        structures = [SequentialRangeTree(pts), KDTree(pts)]
        if d >= 2:
            structures.append(LayeredSequentialRangeTree(pts))
        for box in boxes:
            expected = bf_report(pts, box)
            for s in structures:
                assert s.report(box) == expected, (type(s).__name__, dist_name)

    def test_dominance_pipeline(self, dist_name, d):
        pts, boxes = self._fixtures(dist_name, d)
        idx = DominanceRangeIndex(pts, count_group())
        assert idx.batch_count(boxes) == [bf_count(pts, b) for b in boxes]

    def test_dynamic_tree(self, dist_name, d):
        pts, boxes = self._fixtures(dist_name, d)
        dt = DynamicRangeTree(d)
        for i in range(pts.n):
            dt.insert(tuple(pts.coords[i]), pid=int(pts.ids[i]))
        for box in boxes[:6]:
            assert dt.report(box) == bf_report(pts, box)

    def test_distributed_tree(self, dist_name, d):
        pts, boxes = self._fixtures(dist_name, d)
        tree = DistributedRangeTree.build(pts, p=4)
        assert tree.run([count(q) for q in boxes]).values() == [
            bf_count(pts, b) for b in boxes
        ]
        assert tree.run([report(q) for q in boxes]).values() == [
            bf_report(pts, b) for b in boxes
        ]
        assert validate_tree(tree).ok


class TestAggregateMatrix:
    @pytest.mark.parametrize("dist_name", DISTS)
    def test_distributed_sum_aggregate(self, dist_name):
        pts = make_points(dist_name, 48, 2, seed=3)
        sg = sum_of_dim(0)
        tree = DistributedRangeTree.build(pts, p=4, semigroup=sg)
        rng = np.random.default_rng(4)
        boxes = random_boxes(rng, 8, 2)
        got = tree.run([aggregate(q) for q in boxes]).values()
        for g, b in zip(got, boxes):
            assert g == pytest.approx(bf_aggregate(pts, b, sg))


class TestCapacityModel:
    def test_construct_fits_in_cgm_memory(self):
        """CGM(s,p): with capacity c·s/p the build must fit comfortably."""
        from repro._util import ilog2

        n, d, p = 256, 2, 4
        s = n * (ilog2(n) + 1) ** (d - 1)
        mach = Machine(p, capacity=8 * s // p)
        pts = make_points("uniform", n, d, seed=5)
        # what a rank holds is checked against the capacity in Construct
        # (CapacityExceeded); what it receives in one round is read here
        with DistributedRangeTree.build(pts, machine=mach) as tree:
            received = max(max(step.received) for step in tree.metrics.comm_steps())
        assert received <= 8 * s // p

    def test_unreasonably_small_capacity_detected(self):
        mach = Machine(4, capacity=10)
        pts = make_points("uniform", 256, 2, seed=6)
        with pytest.raises(CapacityExceeded):
            DistributedRangeTree.build(pts, machine=mach)
