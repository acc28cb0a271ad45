"""Tests for the structural validator (repro.dist.validate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DistributedRangeTree, validate_tree
from repro.query import report
from repro.semigroup import COUNT, sum_of_dim
from repro.workloads import clustered_points, grid_points, uniform_points

from tests.helpers import corrupt_shape, last_dim_nodes


class TestValidatorPasses:
    @pytest.mark.parametrize(
        "n,d,p",
        [(32, 1, 4), (64, 2, 8), (48, 3, 4), (32, 2, 1), (16, 2, 16), (64, 2, 2)],
    )
    def test_fresh_builds_validate(self, n, d, p):
        tree = DistributedRangeTree.build(uniform_points(n, d, seed=n + d + p), p=p)
        rep = validate_tree(tree)
        assert rep.ok, rep.summary()
        assert rep.checks_run > 0

    def test_float_semigroup_validates(self):
        tree = DistributedRangeTree.build(
            uniform_points(64, 2, seed=60), p=4, semigroup=sum_of_dim(0)
        )
        assert validate_tree(tree).ok

    def test_degenerate_data_validates(self):
        for pts in (grid_points(50, 2, seed=61, cells=3), clustered_points(50, 2, seed=62)):
            tree = DistributedRangeTree.build(pts, p=4)
            assert validate_tree(tree).ok

    def test_validates_after_reannotation(self):
        tree = DistributedRangeTree.build(uniform_points(64, 2, seed=63), p=4)
        tree.reannotate(sum_of_dim(1))
        assert validate_tree(tree).ok

    def test_validates_after_queries(self):
        from repro.workloads import selectivity_queries

        tree = DistributedRangeTree.build(uniform_points(64, 2, seed=64), p=8)
        qs = selectivity_queries(32, 2, seed=65, selectivity=0.1)
        tree.run([report(q) for q in qs])
        assert validate_tree(tree).ok, "queries must not mutate the structure"


class TestValidatorCatchesCorruption:
    def _tree(self, semigroup=sum_of_dim(0)):
        """Annotated with one value layer, so every aggregate slot is real
        (a COUNT-built tree stores a zero-width column)."""
        return DistributedRangeTree.build(uniform_points(64, 2, seed=66), p=4, semigroup=semigroup)

    def test_detects_bad_aggregate(self):
        tree = self._tree()
        hat = tree.hat
        i = np.nonzero((hat.shape.dim == 1) & ~hat.shape.leaf)[0][0]
        hat.aggs.data[i] += 1  # corrupt one f(v)
        rep = validate_tree(tree)
        assert not rep.ok
        assert any("aggregate" in f for f in rep.failures)

    def test_detects_bad_location(self):
        """A hat leaf that names the wrong owner (still a valid rank)."""
        tree = self._tree()
        leaf = int(np.flatnonzero(tree.hat.shape.leaf)[0])

        def lie(location):  # about ownership
            location[leaf] = (location[leaf] + 1) % tree.p
            return location

        corrupt_shape(tree.hat, "location", lie)
        self._assert_caught(tree, "group-to-processor")

    def test_detects_bad_index_arithmetic(self):
        tree = self._tree()
        left = tree.hat.shape.left[0]

        def bump(paths):  # the root's left child's index
            paths[left, 0] += 1
            return paths

        corrupt_shape(tree.hat, "paths", bump)
        rep = validate_tree(tree)
        assert not rep.ok
        assert any("sibling" in f or "path" in f for f in rep.failures)

    def test_detects_missing_forest_element(self):
        tree = self._tree()
        tree.forest_store[1].pop(1)  # the dimension-1 stack: all its trees
        self._assert_caught(tree, "missing forest element")

    # -- one slot of a forest stack's arrays at a time ---------------------
    def _stack(self, tree, dim=0):
        """Rank 0's stack for dimension ``dim`` (``dim=0`` holds two key
        blocks: its primary trees, then every last-dimension tree;
        ``dim=1`` holds two trees)."""
        return tree.forest_store[0][dim]

    def _assert_caught(self, tree, needle):
        rep = validate_tree(tree)
        assert not rep.ok
        assert any(needle in f for f in rep.failures), rep.failures

    def test_detects_wrong_node_count(self):
        for sg in (sum_of_dim(0), COUNT):  # a zero-width column has rows too
            tree = self._tree(sg)
            stack = self._stack(tree)
            stack.aggs = stack.aggs[:-1]
            self._assert_caught(tree, "aggregate row count is not R(")

    def test_detects_wrong_record_counts(self):
        tree = self._tree()
        stack = self._stack(tree)
        stack.row_block = stack.row_block[:-1]
        self._assert_caught(tree, "row_block rows")
        tree = self._tree()
        stack = self._stack(tree)
        stack.keys = (stack.keys[0], stack.keys[1][:-1])
        self._assert_caught(tree, "row_block rows")

    def test_detects_inverted_interval(self):
        """A tree whose key slice runs ``hi .. lo``: the primary tree's
        first and last keys swapped."""
        tree = self._tree()
        stack = self._stack(tree)
        primary, m = stack.keys[0], stack.width
        primary[0], primary[m - 1] = primary[m - 1], primary[0]
        self._assert_caught(tree, "key block slot")

    def test_detects_child_interval_escaping_its_parent(self):
        """A descendant tree claiming a rank none of its rows has."""
        tree = self._tree()
        stack = self._stack(tree)
        stack.keys[1][stack.width + 1] += 1  # inside the root's left child's tree
        self._assert_caught(tree, "key block slot")

    def test_detects_broken_last_dimension_link(self):
        """A last-dimension key slot is linked to its row by position:
        two rows of one tree swapped keep every row *set* intact."""
        tree = self._tree()
        rows = self._stack(tree).row_block
        rows[0], rows[1] = rows[1], rows[0]
        self._assert_caught(tree, "key block slot")

    def test_detects_broken_descendant_link(self):
        """A key is linked to its tree by the start it is prefixed with:
        one slot re-prefixed to the neighbouring tree."""
        tree = self._tree()
        stack = self._stack(tree)
        stack.keys[1][stack.width] -= stack.span
        self._assert_caught(tree, "key block slot")

    def test_detects_row_block_slice_that_is_not_a_permutation(self):
        tree = self._tree()
        stack = self._stack(tree)
        stack.row_block[-1] = stack.row_block[-2]  # one row twice, one lost
        self._assert_caught(tree, "not a permutation")

    def test_detects_stale_element_root_aggregate(self):
        tree = self._tree()
        stack = self._stack(tree)
        stack.aggs.data[len(stack.keys) - 1] += 1  # tree 0's last dimension's root
        self._assert_caught(tree, "hat-leaf aggregate stale")

    @pytest.mark.parametrize("dim", [0, 1])
    def test_detects_every_single_slot_corruption(self, dim):
        """Each slot of each held array, one at a time, across every tree
        of the stack (aggregates: the block-heap rows of real
        last-dimension nodes — a heap's identity row and the rows whose
        span crosses two trees are never read)."""
        tree = self._tree()
        stack = self._stack(tree, dim=dim)
        assert validate_tree(tree).ok
        last = [row for _off, _w, row in last_dim_nodes(stack)]
        held = (*stack.keys, stack.row_block, stack.pids)
        for arr, slots in [(b, range(len(b))) for b in held] + [(stack.aggs.data, last)]:
            for j in slots:
                keep = arr[j].copy()
                arr[j] += 1
                assert not validate_tree(tree).ok, (len(arr), j)
                arr[j] = keep
        assert validate_tree(tree).ok

    def test_summary_truncates(self):
        rep = validate_tree(self._tree())
        text = rep.summary()
        assert text.startswith("validation: OK")
