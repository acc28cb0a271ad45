"""Tests for the hat/forest decomposition (Definition 3, Theorem 1, Figure 3)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro._util import ilog2
from repro.dist import DistributedRangeTree
from repro.geometry import Box
from repro.semigroup import COUNT, sum_of_dim
from repro.workloads import uniform_points

from tests.helpers import hat_walk


def build(n=64, d=2, p=8, seed=0, semigroup=COUNT):
    return DistributedRangeTree.build(uniform_points(n, d, seed=seed), p=p, semigroup=semigroup)


class TestTheorem1:
    @pytest.mark.parametrize("n,d,p", [(64, 1, 8), (64, 2, 8), (64, 2, 4), (32, 3, 4), (128, 2, 16)])
    def test_hat_size_bound(self, n, d, p):
        """|H| = O(p log^{d-1} p): the hat is a range tree with p leaves."""
        tree = build(n=n, d=d, p=p)
        logp = max(1, ilog2(p))
        # a p-leaf range tree has < 4p nodes per dimension level product
        bound = 4 * p * (logp + 1) ** (d - 1)
        assert tree.hat.size_nodes() <= bound

    @pytest.mark.parametrize("n,d,p", [(64, 2, 8), (64, 3, 8), (128, 1, 8)])
    def test_forest_groups_disjoint_and_balanced(self, n, d, p):
        """Theorem 1(ii): the F_i are disjoint with equal (O(s/p)) sizes."""
        tree = build(n=n, d=d, p=p)
        shape = tree.hat.shape
        held = [
            (int(shape.location[i]), int(shape.dim[i]), int(shape.tree[i]))
            for i in np.flatnonzero(shape.leaf)
        ]
        assert len(held) == len(set(held)), "forest groups overlap"
        sizes = tree.construct_result.forest_group_sizes()
        assert max(sizes) <= 2 * min(sizes), f"imbalanced groups: {sizes}"

    def test_forest_element_count_per_phase(self):
        """Dimension-one forest has exactly p elements on n points (Figure 3)."""
        tree = build(n=64, d=2, p=8)
        phase0 = [store[0] for store in tree.forest_store]
        assert sum(stack.shape[0] for stack in phase0) == 8
        assert all(stack.width == 8 for stack in phase0)

    def test_every_element_has_n_over_p_points(self):
        tree = build(n=64, d=2, p=8)
        for store in tree.forest_store:
            for stack in store.values():
                assert stack.width == 8 and len(stack.pids) == 8 * stack.shape[0]

    def test_total_forest_plus_hat_covers_structure(self):
        """Total leaves of forest elements ~= s (the structure's size)."""
        n, p = 64, 8
        tree = build(n=n, d=2, p=p)
        total = sum(tree.construct_result.forest_group_sizes())
        # s for d=2 = n(log n + 2)-ish in leaves; forest holds all but hat
        logn = ilog2(n)
        assert total >= n * logn // 2

    def test_locations_match_owner_rank(self):
        """Every hat leaf names a tree its owner holds, every held tree
        is named once."""
        tree = build(n=64, d=2, p=8)
        shape = tree.hat.shape
        named = sorted(
            (int(shape.location[i]), int(shape.dim[i]), int(shape.tree[i]))
            for i in np.flatnonzero(shape.leaf)
        )
        held = [
            (rank, j, t)
            for rank, store in enumerate(tree.forest_store)
            for j, stack in sorted(store.items())
            for t in range(stack.shape[0])
        ]
        assert named == held


class TestFigure3Structure:
    """Figure 3: the hat in dimension 1 with the associated forest, p=8."""

    def test_hat_top_logp_levels(self):
        n, p = 64, 8
        tree = build(n=n, d=2, p=p)
        leaf_level = ilog2(n) - ilog2(p)
        hat = tree.hat
        for i in range(hat.size_nodes()):
            level = hat.path(i)[0][1]
            assert level >= leaf_level
            if hat.shape.leaf[i]:
                assert level == leaf_level

    def test_primary_hat_has_p_leaves(self):
        tree = build(n=64, d=2, p=8)
        hat = tree.hat
        assert int((hat.shape.leaf & (hat.shape.dim == 0)).sum()) == 8

    def test_descendant_trees_on_halving_point_counts(self):
        """Figure 3: hat nodes carry descendant range trees on n, n/2, n/4...
        points (one per internal node of the primary hat)."""
        n, p = 64, 8
        tree = build(n=n, d=2, p=p)
        hat = tree.hat
        sizes = sorted(hat.nleaves[(hat.shape.dim == 0) & ~hat.shape.leaf].tolist(), reverse=True)
        assert sizes == [64, 32, 32, 16, 16, 16, 16]

    def test_internal_nodes_have_descendants(self):
        tree = build(n=64, d=2, p=8)
        hat = tree.hat
        for i in np.nonzero((hat.shape.dim == 0) & ~hat.shape.leaf)[0]:
            desc = hat.shape.desc[i]
            assert desc >= 0
            assert hat.shape.dim[desc] == 1
            assert hat.nleaves[desc] == hat.nleaves[i]

    def test_hat_leaf_of_last_dim_has_no_descendant(self):
        tree = build(n=64, d=2, p=8)
        hat = tree.hat
        assert (hat.shape.desc[hat.shape.dim == 1] == -1).all()


class TestHatIntegrity:
    def test_segments_union_of_children(self):
        tree = build(n=64, d=2, p=8)
        hat = tree.hat
        for i in np.nonzero(~hat.shape.leaf)[0]:
            left, right = hat.shape.left[i], hat.shape.right[i]
            assert hat.lo[i] == hat.lo[left]
            assert hat.hi[i] == hat.hi[right]
            assert hat.hi[left] < hat.lo[right]

    def test_sibling_indices(self):
        tree = build(n=64, d=2, p=8)
        hat = tree.hat
        for i in np.nonzero(~hat.shape.leaf)[0]:
            index = hat.path(i)[0][0]
            assert hat.path(hat.shape.left[i])[0][0] == 2 * index
            assert hat.path(hat.shape.right[i])[0][0] == 2 * index + 1

    def test_paths_unique_and_valid(self):
        from repro.dist import is_valid_path

        tree = build(n=64, d=3, p=4)
        paths = [tree.hat.path(i) for i in range(tree.hat.size_nodes())]
        assert len(paths) == len(set(paths))
        assert all(is_valid_path(p) for p in paths)

    def test_dim_d_aggregates_consistent(self):
        """f(v) of a dimension-d hat node = sum of its children's values."""
        tree = build(n=64, d=2, p=8, semigroup=sum_of_dim(0))
        hat, f = tree.hat, tree.hat.aggs.layer(0)
        for i in np.nonzero((hat.shape.dim == 1) & ~hat.shape.leaf)[0]:
            assert f[i] == f[hat.shape.left[i]] + f[hat.shape.right[i]]

    def test_root_aggregate_counts_all_points(self):
        n = 64
        tree = build(n=n, d=2, p=8)
        hat = tree.hat
        assert hat.shape.desc[0] >= 0
        assert hat.nleaves[hat.shape.desc[0]] == n  # count over every (padded) point
        # a count is a width: the COUNT-built hat holds no value column
        assert hat.aggs.data.shape == (hat.size_nodes(), 0)
        summed = build(n=n, d=2, p=8, semigroup=sum_of_dim(0))
        points = uniform_points(n, 2, seed=0)
        assert summed.hat.agg(hat.shape.desc[0]) == pytest.approx(points.coords[:, 0].sum())

    def test_forest_leaves_under_root_is_p(self):
        tree = build(n=64, d=2, p=8)
        hat = tree.hat
        shape = hat.shape
        top = int(shape.desc[0])  # tilings are held for the last dimension's trees
        leaves = shape.tile_leaf_ids[shape.tile_off[top] : shape.tile_off[top] + shape.tile_len[top]]
        assert len(leaves) == 8
        # left-to-right segment order
        los = hat.lo[leaves].tolist()
        assert los == sorted(los)

    def test_hat_leaf_location_known(self):
        tree = build(n=64, d=2, p=8)
        hat = tree.hat
        locations = hat.shape.location[hat.shape.leaf]
        assert ((0 <= locations) & (locations < 8)).all()

    def test_p1_hat_is_single_leaf(self):
        tree = build(n=32, d=2, p=1)
        assert tree.hat.size_nodes() == 1
        assert tree.hat.shape.leaf[0]

    def test_p_equals_n(self):
        tree = build(n=16, d=2, p=16)
        leaf_level = 0
        hat = tree.hat
        assert all(hat.path(i)[0][1] >= leaf_level for i in range(hat.size_nodes()))
        assert int((hat.shape.leaf & (hat.shape.dim == 0)).sum()) == 16


class TestHatWalkVsSequential:
    def test_walk_selections_cover_query_exactly(self):
        """Hat selections + forest continuations together must equal the
        sequential canonical decomposition's coverage (checked via counts
        in the mode tests; here we check the hat pieces are disjoint)."""
        tree = build(n=64, d=2, p=8, seed=3)
        box = tree.ranked.to_rank_box(Box([(0.1, 0.9), (0.2, 0.8)]))
        sels, subqs, _exps = hat_walk(tree.hat, 0, box, report=True)
        # selected hat nodes must be pairwise disjoint in the last dim
        nodes = [node for _qid, node, _nleaves, _agg in sels]
        assert len(nodes) == len(set(nodes))
        # subqueries name distinct forest elements
        fids = [tree.hat.path(sq[4]) for sq in subqs]
        assert len(fids) == len(set(fids))

    def test_empty_box_walks_nowhere(self):
        tree = build(n=64, d=2, p=8)
        from repro.geometry import RankBox

        assert hat_walk(tree.hat, 0, RankBox((5, 0), (4, 63))) == ([], [], [])

    def test_full_box_selects_root_descendant(self):
        tree = build(n=64, d=2, p=8)
        from repro.geometry import RankBox

        sels, subqs, exps = hat_walk(tree.hat, 0, RankBox((0, 0), (63, 63)))
        # the whole domain: one selection (root of root's descendant), no
        # subqueries; its count is its width, its value the empty annotation's
        assert subqs == [] and exps == []
        assert sels == [(0, int(tree.hat.shape.desc[0]), 64, ())]

    def test_charge_callback_invoked(self):
        tree = build(n=64, d=2, p=8)
        charges = []
        box = tree.ranked.to_rank_box(Box([(0.2, 0.7), (0.1, 0.6)]))
        hat_walk(tree.hat, 0, box, charge=charges.append)
        assert charges and charges[0] > 0
