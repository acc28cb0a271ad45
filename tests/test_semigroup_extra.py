"""Tests for the top-k and histogram semigroups (end-to-end incl. distributed)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DistributedRangeTree
from repro.query import aggregate
from repro.semigroup import Semigroup, histogram_of_dim, top_k_ids
from repro.seq import SequentialRangeTree, bf_aggregate
from repro.workloads import uniform_points

from tests.helpers import random_boxes


def _laws(sg: Semigroup, vals) -> None:
    for v in vals:
        assert sg.combine(sg.identity, v) == v
        assert sg.combine(v, sg.identity) == v
    for a in vals:
        for b in vals:
            assert sg.combine(a, b) == sg.combine(b, a)
            for c in vals:
                assert sg.combine(sg.combine(a, b), c) == sg.combine(a, sg.combine(b, c))


class TestTopK:
    def test_laws(self):
        sg = top_k_ids(2)
        vals = [sg.lift(i, (float(x),)) for i, x in enumerate([5, 1, 3, 1])]
        _laws(sg, vals)

    def test_keeps_k_smallest(self):
        sg = top_k_ids(3, dim=0)
        vals = [sg.lift(i, (float(x),)) for i, x in enumerate([9, 2, 7, 1, 5])]
        got = sg.fold(vals)
        assert [pid for _c, pid in got] == [3, 1, 4]

    def test_fewer_than_k(self):
        sg = top_k_ids(5)
        got = sg.fold([sg.lift(0, (1.0,)), sg.lift(1, (2.0,))])
        assert len(got) == 2

    def test_k_validation(self):
        with pytest.raises(ValueError):
            top_k_ids(0)

    def test_sequential_tree(self):
        pts = uniform_points(48, 2, seed=1)
        sg = top_k_ids(4, dim=1)
        tree = SequentialRangeTree(pts, semigroup=sg)
        rng = np.random.default_rng(2)
        for box in random_boxes(rng, 10, 2):
            assert tree.aggregate(box) == bf_aggregate(pts, box, sg)

    def test_distributed_tree(self):
        pts = uniform_points(48, 2, seed=3)
        sg = top_k_ids(3)
        tree = DistributedRangeTree.build(pts, p=4, semigroup=sg)
        rng = np.random.default_rng(4)
        boxes = random_boxes(rng, 10, 2)
        assert tree.run([aggregate(q) for q in boxes]).values() == [
            bf_aggregate(pts, b, sg) for b in boxes
        ]


class TestHistogram:
    def test_laws(self):
        sg = histogram_of_dim(0, [0.5])
        vals = [sg.lift(i, (x,)) for i, x in enumerate([0.1, 0.6, 0.5])]
        _laws(sg, vals)

    def test_binning(self):
        sg = histogram_of_dim(0, [1.0, 2.0])
        got = sg.fold(sg.lift(i, (x,)) for i, x in enumerate([0.5, 1.0, 1.5, 2.5]))
        # bisect_right: 1.0 falls in bin 1 (> edge goes right)
        assert got == (1, 2, 1)

    def test_total_equals_count(self):
        pts = uniform_points(40, 2, seed=5)
        sg = histogram_of_dim(0, [0.25, 0.5, 0.75])
        tree = SequentialRangeTree(pts, semigroup=sg)
        rng = np.random.default_rng(6)
        count_tree = SequentialRangeTree(pts)
        for box in random_boxes(rng, 10, 2):
            assert sum(tree.aggregate(box)) == count_tree.count(box)

    def test_distributed_tree(self):
        pts = uniform_points(48, 2, seed=7)
        sg = histogram_of_dim(1, [0.5])
        tree = DistributedRangeTree.build(pts, p=8, semigroup=sg)
        rng = np.random.default_rng(8)
        boxes = random_boxes(rng, 10, 2)
        assert tree.run([aggregate(q) for q in boxes]).values() == [
            bf_aggregate(pts, b, sg) for b in boxes
        ]
