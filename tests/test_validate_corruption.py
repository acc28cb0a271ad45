"""Extended corruption matrix for the structural validator.

The seed suite (test_validate.py) corrupts an aggregate, a location, an
index, a forest stack's slots, and drops a stack.  Here every other
field the validator guards is corrupted one at a time: hat-leaf counts,
segment unions, descendant pointers, tree indices (group ranks), stale
hat-leaf aggregates, swapped elements, stacks filed at the wrong rank
or dimension, key blocks or ``row_block`` at a type that does not
hold them, and a leafless aggregate column's tail, heap rows or row
count — each must be caught, and the failure summary must say so.  A topology column belongs to the hat's shape, which every tree
on ``(p, d)`` shares read-only: a test binds a corrupted copy of it to
the one hat it corrupts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DistributedRangeTree, validate_tree
from repro.semigroup import KernelColumn, ObjectKernel, sum_of_dim
from repro.workloads import uniform_points

from tests.helpers import corrupt_shape, unkernelized


@pytest.fixture
def tree():
    """Annotated with one value layer, so every aggregate slot is real (a
    COUNT-built tree stores a zero-width column)."""
    return DistributedRangeTree.build(uniform_points(64, 2, seed=120), p=4, semigroup=sum_of_dim(0))


def _first_internal(tree, dim) -> int:
    shape = tree.hat.shape
    return int(np.nonzero((shape.dim == dim) & ~shape.leaf)[0][0])


def _first_leaf(tree) -> int:
    return int(np.nonzero(tree.hat.shape.leaf)[0][0])


def _bump(tree, column: str, i) -> None:
    """Row ``i`` of one hat column plus one (a flag flipped): in place for
    the tree's own columns (``agg_mat``: the encoded aggregate matrix), on
    a bound copy for the shape's."""

    def edit(col):
        col[i] = ~col[i] if col.dtype == bool else col[i] + 1
        return col

    if hasattr(tree.hat.shape, column):
        corrupt_shape(tree.hat, column, edit)
    elif column == "agg_mat":
        edit(tree.hat.aggs.data)
    else:
        edit(getattr(tree.hat, column))


def _assert_caught(tree, needle):
    rep = validate_tree(tree)
    assert not rep.ok
    assert any(needle in f for f in rep.failures), rep.failures


class TestCorruptHat:
    def test_detects_bad_leaf_count(self, tree):
        tree.hat.nleaves[_first_internal(tree, 0)] += 4
        rep = validate_tree(tree)
        assert not rep.ok
        assert any("leaf count" in f for f in rep.failures)

    def test_detects_broken_segment_union(self, tree):
        hat = tree.hat
        i = _first_internal(tree, 0)
        hat.lo[i] = hat.lo[hat.shape.left[i]] + 1  # no longer the union of its children
        rep = validate_tree(tree)
        assert not rep.ok
        assert any("union of children" in f for f in rep.failures)

    def test_detects_swapped_descendant(self, tree):
        hat = tree.hat
        a, b = np.nonzero((hat.shape.dim == 0) & ~hat.shape.leaf & (hat.nleaves == 32))[0][:2]

        def swap(desc):
            desc[[a, b]] = desc[[b, a]]
            return desc

        corrupt_shape(hat, "desc", swap)
        rep = validate_tree(tree)
        assert not rep.ok
        assert any("descendant" in f for f in rep.failures)

    def test_detects_earlier_dimension_aggregate(self, tree):
        """f(v) must be validated on every dimension, not just the last."""
        tree.hat.aggs.data[_first_internal(tree, 0)] += 1
        rep = validate_tree(tree)
        assert not rep.ok
        assert any("aggregate" in f for f in rep.failures)

    def test_detects_stale_hat_leaf_aggregate(self, tree):
        tree.hat.aggs.data[_first_leaf(tree)] += 1
        rep = validate_tree(tree)
        assert not rep.ok
        assert any("stale" in f or "aggregate" in f for f in rep.failures)

    def test_summary_reports_failure(self, tree):
        tree.hat.aggs.data[_first_leaf(tree)] += 1
        rep = validate_tree(tree)
        text = rep.summary()
        assert text.startswith("validation: FAILED")
        assert "checks" in text

    # -- one entry of each hat column at a time ----------------------------
    @pytest.mark.parametrize(
        "column,needle",
        [
            ("dim", "flags wrong"),
            ("leaf", "flags wrong"),
            ("last_dim", "flags wrong"),
            ("lo", "union of children"),
            ("hi", "union of children"),
            ("nleaves", "leaf count"),
            ("left", "link broken"),
            ("right", "link broken"),
            ("desc", "link broken"),
            ("location", "names an owner"),
            ("tree", "names an owner"),
            ("tile_off", "tile slice"),
            ("tile_len", "tile slice"),
            ("agg_mat", "aggregate f(v) mismatch"),
        ],
    )
    def test_detects_one_corrupt_internal_entry(self, tree, column, needle):
        shape = tree.hat.shape
        _bump(tree, column, int(np.nonzero(shape.last_dim & ~shape.leaf)[0][-1]))
        _assert_caught(tree, needle)

    @pytest.mark.parametrize(
        "column,needle",
        [
            ("lo", "disagrees with its hat leaf"),
            ("hi", "disagrees with its hat leaf"),
            ("nleaves", "disagrees with its hat leaf"),
            ("location", "has owner 4 outside 0..3"),
            ("tree", "group-to-processor"),
            ("agg_mat", "hat-leaf aggregate stale"),
        ],
    )
    def test_detects_one_corrupt_leaf_entry(self, tree, column, needle):
        _bump(tree, column, int(np.nonzero(tree.hat.shape.leaf)[0][-1]))
        _assert_caught(tree, needle)

    def test_detects_corrupt_tile_leaf_id(self, tree):
        _bump(tree, "tile_leaf_ids", -1)
        _assert_caught(tree, "tile slice")

    def test_detects_corrupt_path_entry(self, tree):
        _bump(tree, "paths", (-1, 1))  # the last node's level
        _assert_caught(tree, "sibling index arithmetic")

    def test_detects_wrong_node_count(self, tree):
        corrupt_shape(tree.hat, "dim", lambda dim: dim[:-1])
        _assert_caught(tree, "H(4, 2) = 20")

    def test_detects_second_aggregate_column(self, tree):
        """The hat's one aggregate column is held under the semigroup's
        kernel: the same values under another kernel are caught."""
        aggs = tree.hat.aggs
        twin = unkernelized(tree.semigroup).kernel
        tree.hat.aggs = KernelColumn.from_values(twin, aggs.to_list())
        _assert_caught(tree, "under the semigroup's kernel")

    def test_detects_untyped_hat_aggregates(self):
        """The same checks read an object column (a semigroup no kernel holds)."""
        from repro.semigroup import top_k_ids

        tree = DistributedRangeTree.build(
            uniform_points(64, 2, seed=121), p=4, semigroup=top_k_ids(2)
        )
        assert isinstance(tree.hat.aggs.kernel.component(0), ObjectKernel)
        assert validate_tree(tree).ok
        tree.hat.aggs.data[0, 0] = ()
        _assert_caught(tree, "aggregate f(v) mismatch")


class TestMislabeledForest:
    """What names a tree of a stack: a hat leaf's owner, dimension and
    tree index — each wrong one must be caught."""

    def _dim1_leaves(self, tree, owner):
        shape = tree.hat.shape
        return np.flatnonzero(shape.leaf & (shape.dim == 1) & (shape.location == owner))

    def test_detects_swapped_forest_roots(self, tree):
        """Two elements filed under each other's names (same sizes, wrong segs)."""
        a, b = self._dim1_leaves(tree, 0)[:2]

        def swap(trees):
            trees[[a, b]] = trees[[b, a]]
            return trees

        corrupt_shape(tree.hat, "tree", swap)
        _assert_caught(tree, "disagrees")

    def test_detects_bad_group_rank(self, tree):
        _bump(tree, "tree", self._dim1_leaves(tree, 2)[0])  # not the tree its group rank gives
        _assert_caught(tree, "group-to-processor")

    def test_detects_cross_rank_duplicate(self, tree):
        """Rank 0's stack filed at rank 1 too: rank 1's hat leaves name
        trees that hold rank 0's points."""
        tree.forest_store[1][1] = tree.forest_store[0][1]
        _assert_caught(tree, "disagrees")

    def test_detects_foreign_element(self, tree):
        """A stack filed under a dimension no hat leaf names."""
        store = tree.forest_store[3]
        store[7] = store.pop(1)
        _assert_caught(tree, "named by no hat leaf")


class TestIndexWidths:
    """A stack's key blocks share one signed integer type that holds
    ``R(m, r) · trees · span``, a bound on every key, and its
    ``row_block`` is integer: a block at another width, or one whose
    keys wrapped, is caught before any slot is read."""

    def _stack(self, tree):
        stack = tree.forest_store[0][0]
        assert {block.dtype for block in stack.keys} == {np.dtype(np.int32)}
        return stack

    def test_detects_an_int16_key_block(self, tree):
        """Its keys still fit (the bound is 80 x 1 x 64 = 5120), but the
        blocks no longer share one type."""
        stack = self._stack(tree)
        stack.keys = (stack.keys[0].astype(np.int16), *stack.keys[1:])
        _assert_caught(tree, "not one signed integer type holding R(16, 2) x 1 x span = 5120")

    def test_detects_a_block_whose_keys_wrapped(self, tree):
        """One type, too narrow for the bound: the keys wrapped."""
        stack = self._stack(tree)
        wrapped = tuple(block.astype(np.int8) for block in stack.keys)
        assert any((w != block).any() for w, block in zip(wrapped, stack.keys))
        stack.keys = wrapped
        _assert_caught(tree, "not one signed integer type holding")

    def test_detects_a_row_block_that_is_not_integer(self, tree):
        stack = self._stack(tree)
        stack.row_block = stack.row_block.astype(np.float64)
        _assert_caught(tree, "row_block is not integer")


class TestLeaflessAggregates:
    """A stack's aggregate column is one heap of ``m`` internal-node rows
    per width-``m`` block of ``row_block``, then each row's own value:
    a wrong tail value, a wrong internal row and a column in the former
    layout (one heap of ``2m`` rows a block, its leaves included) are
    each caught by their own check."""

    def _stack(self, tree, dim=0):
        stack = tree.forest_store[0][dim]
        heads = len(stack.row_block)
        assert len(stack.aggs) == heads + len(stack.pids)
        return stack, heads

    def test_detects_a_wrong_tail_value(self, tree):
        stack, heads = self._stack(tree)
        stack.aggs.data[heads + 5] += 1
        _assert_caught(tree, "a leaf aggregate is not its row's lifted value")

    def test_detects_a_wrong_internal_row(self, tree):
        stack, _heads = self._stack(tree)
        stack.aggs.data[2] += 1  # the root's left child, in the first heap
        _assert_caught(tree, "an aggregate is not the fold of the values under its node")

    @pytest.mark.parametrize(
        "dim, needle",
        [
            # 2-d trees: 2·R(16, 2) = 160 rows, not R(16, 2) + 16 = 96
            (0, "aggregate row count is not R(16, 2) x 1 + 1 x 16 = 96"),
            # 1-d trees hold 2m rows a tree either way: the rows are wrong
            (1, "an aggregate is not the fold of the values under its node"),
        ],
    )
    def test_detects_a_column_in_the_former_layout(self, tree, dim, needle):
        stack, heads = self._stack(tree, dim)
        assert stack.shape[0] > 1 or dim == 0  # two 1-d trees interleave
        m, w = stack.width, stack.aggs.kernel.width
        data = stack.aggs.data
        heaps = data[:heads].reshape(-1, m, w)
        leaves = data[heads:][stack.row_block].reshape(-1, m, w)
        former = np.concatenate([heaps, leaves], axis=1).reshape(-1, w)
        stack.aggs = KernelColumn(stack.aggs.kernel, former)
        _assert_caught(tree, needle)


class TestReportShape:
    def test_checks_run_monotonic_in_structure(self):
        small = DistributedRangeTree.build(uniform_points(32, 2, seed=121), p=2)
        large = DistributedRangeTree.build(uniform_points(128, 2, seed=122), p=8)
        assert validate_tree(large).checks_run > validate_tree(small).checks_run

    def test_failures_empty_on_ok(self, tree):
        rep = validate_tree(tree)
        assert rep.ok and rep.failures == [] and rep.checks_run > 0


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_one_ranks_hat_replica_is_caught(backend):
    """Each rank holds its own replica, so Definition 3's replication is
    checked, not assumed: one aggregate off on rank 2 alone — made by a
    phase, where the replica lives — fails exactly the replica check."""
    pts = uniform_points(64, 2, seed=121)
    with DistributedRangeTree.build(pts, p=4, backend=backend, semigroup=sum_of_dim(0)) as tree:
        assert validate_tree(tree).ok
        tree.machine.run_phase("corrupt", "test.bump_hat", [(tree.construct_result.ns, 2)] * 4)
        report = validate_tree(tree)
    assert report.failures == ["rank 2's hat replica differs from rank 0's"]
