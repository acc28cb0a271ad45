"""White-box tests of Algorithm Construct's record flow and the hat
builder's protocol error handling."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro._util import ilog2
from repro.dist import DistributedRangeTree
from repro.dist.hat import Hat
from repro.dist.records import ForestRootInfo
from repro.errors import ProtocolError
from repro.query import count
from repro.semigroup import COUNT
from repro.workloads import uniform_points


def build(n=64, d=2, p=8, seed=0):
    return DistributedRangeTree.build(uniform_points(n, d, seed=seed), p=p)


class TestRecordFlow:
    def test_forest_ids_name_their_phase(self):
        """A phase-j element's forest id has path length j+1 (Definition 2),
        and its owner holds it in the phase-j stack."""
        tree = build(d=3, p=4, n=64)
        for info in tree.construct_result.roots:
            assert len(info.path) == info.dim + 1
            assert info.tree < tree.forest_store[info.location][info.dim].shape[0]

    def test_phase_j_trees_hang_from_phase_j_minus_1_hat_nodes(self):
        tree = build(d=2, p=8)
        hat = tree.hat
        row_of = {hat.path(i): i for i in range(hat.size_nodes())}
        for info in tree.construct_result.roots:
            fid = info.path
            if info.dim == 0:
                assert fid[1:] == ()
            else:
                anchor = row_of.get(fid[1:])
                assert anchor is not None, f"no hat anchor for {fid}"
                assert hat.shape.dim[anchor] == info.dim - 1
                assert not hat.shape.leaf[anchor]

    def test_deep_phase_element_counts(self):
        """Phase-1 elements: one per hat internal node per n/p leaf group =
        n·log p / (n/p) = p·log p elements, the trees of the ranks'
        dimension-1 stacks."""
        n, p = 64, 8
        tree = build(n=n, d=2, p=p)
        assert sum(store[1].shape[0] for store in tree.forest_store) == p * ilog2(p)

    def test_hat_leaf_levels_uniform(self):
        n, p = 64, 4
        tree = build(n=n, d=3, p=p)
        ll = ilog2(n) - ilog2(p)
        hat = tree.hat
        assert {hat.path(i)[0][1] for i in np.nonzero(hat.shape.leaf)[0]} == {ll}

    def test_seg_partition_within_each_tree(self):
        """Forest elements of one segment tree tile its rank range."""
        from collections import defaultdict

        tree = build(d=2, p=8)
        by_tree = defaultdict(list)
        for info in tree.construct_result.roots:
            by_tree[info.path[1:]].append(info.seg)
        for tid, segs in by_tree.items():
            segs.sort()
            for a, b in zip(segs, segs[1:]):
                assert a[1] < b[0], f"overlap inside tree {tid}"


class TestHatBuildErrors:
    def _roots(self):
        tree = build(n=32, d=2, p=4)
        return list(tree.construct_result.roots)

    def test_missing_root_detected(self):
        roots = self._roots()
        with pytest.raises(ProtocolError, match="forest roots"):
            Hat.build(roots[:-1], d=2, n=32, p=4, semigroup=COUNT)

    def test_wrong_path_detected(self):
        roots = self._roots()
        bad = roots[0]
        corrupted = ForestRootInfo(
            path=((999, bad.path[0][1]),) + bad.path[1:],
            dim=bad.dim,
            seg=bad.seg,
            nleaves=bad.nleaves,
            location=bad.location,
            tree=bad.tree,
            agg=bad.agg,
        )
        with pytest.raises(ProtocolError):
            Hat.build([corrupted] + roots[1:], d=2, n=32, p=4, semigroup=COUNT)

    @pytest.mark.parametrize("field", ["location", "tree", "nleaves", "dim"])
    def test_mislabeled_root_detected(self, field):
        """A root at the right label that names the wrong owner, stack
        index, leaf count or dimension: the owner it names may hold
        another tree at that index, so the hat must not build."""
        roots = self._roots()
        bad = roots[-1]
        wrong = {
            "location": (bad.location + 1) % 4,
            "tree": bad.tree + 1,
            "nleaves": bad.nleaves + 1,
            "dim": (bad.dim + 1) % 2,
        }[field]
        corrupted = dataclasses.replace(bad, **{field: wrong})
        with pytest.raises(ProtocolError, match="mislabeled"):
            Hat.build(roots[:-1] + [corrupted], d=2, n=32, p=4, semigroup=COUNT)

    def test_empty_roots_rejected(self):
        from repro.errors import MachineError

        with pytest.raises(MachineError):
            Hat.build([], d=2, n=32, p=4, semigroup=COUNT)

    def test_non_power_of_two_p_rejected(self):
        from repro.errors import PowerOfTwoError

        roots = self._roots()
        with pytest.raises(PowerOfTwoError):
            Hat.build(roots, d=2, n=32, p=3, semigroup=COUNT)


class TestConstructDeterminismAcrossP:
    def test_same_points_different_p_same_answers(self):
        from repro.seq import bf_count
        from repro.workloads import selectivity_queries

        pts = uniform_points(64, 2, seed=7)
        qs = selectivity_queries(24, 2, seed=8, selectivity=0.1)
        expected = [bf_count(pts, q) for q in qs]
        for p in (1, 2, 4, 8, 16, 32, 64):
            tree = DistributedRangeTree.build(pts, p=p)
            assert tree.run([count(q) for q in qs]).values() == expected, f"p={p}"
