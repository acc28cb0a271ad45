"""White-box tests of Algorithm Construct's record flow and the hat
builder's protocol error handling."""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro._util import ilog2
from repro.cgm.columns import RecordBatch
from repro.cgm.phases import ProcContext, get_phase
from repro.dist import DistributedRangeTree
from repro.dist.hat import Hat, forest_roots, hat_shape
from repro.errors import ProtocolError
from repro.query import count
from repro.semigroup import COUNT, NO_LAYERS, KernelColumn, sum_of_dim
from repro.workloads import uniform_points

from tests.helpers import forest_elements


def build(n=64, d=2, p=8, seed=0, semigroup=COUNT):
    return DistributedRangeTree.build(uniform_points(n, d, seed=seed), p=p, semigroup=semigroup)


def roots_of(tree):
    """The ``dist.root`` batch Construct step 5 broadcast."""
    hat, elements = tree.hat, forest_elements(tree)
    rows = np.array([leaf for leaf, _stack, _t in elements])
    aggs = KernelColumn.concat([stack.root_aggs()[t : t + 1] for _leaf, stack, t in elements])
    return forest_roots(rows, hat.lo[rows], hat.hi[rows], aggs)


class TestRecordFlow:
    def test_forest_ids_name_their_phase(self):
        """A phase-j element's hat leaf has a label of length j+1
        (Definition 2), and its owner holds it in the phase-j stack."""
        tree = build(d=3, p=4, n=64)
        for leaf, stack, t in forest_elements(tree):
            j = int(tree.hat.shape.dim[leaf])
            assert len(tree.hat.path(leaf)) == j + 1
            assert stack is tree.forest_store[tree.hat.shape.location[leaf]][j]
            assert t < stack.shape[0]

    def test_phase_j_trees_hang_from_phase_j_minus_1_hat_nodes(self):
        tree = build(d=2, p=8)
        hat = tree.hat
        row_of = {hat.path(i): i for i in range(hat.size_nodes())}
        for leaf in np.flatnonzero(hat.shape.leaf).tolist():
            fid, j = hat.path(leaf), int(hat.shape.dim[leaf])
            if j == 0:
                assert fid[1:] == ()
            else:
                anchor = row_of.get(fid[1:])
                assert anchor is not None, f"no hat anchor for {fid}"
                assert hat.shape.dim[anchor] == j - 1
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
        tree = build(d=2, p=8)
        hat = tree.hat
        by_tree = defaultdict(list)
        for leaf in np.flatnonzero(hat.shape.leaf).tolist():
            by_tree[hat.path(leaf)[1:]].append((int(hat.lo[leaf]), int(hat.hi[leaf])))
        for tid, segs in by_tree.items():
            segs.sort()
            for a, b in zip(segs, segs[1:]):
                assert a[1] < b[0], f"overlap inside tree {tid}"


class TestHatBuildErrors:
    """Hat.build seats each broadcast root by its hat-leaf row; a row the
    shape cannot seat is a protocol violation on some processor."""

    def _roots(self):
        return roots_of(build(n=32, d=2, p=4))

    def test_roots_seat_the_built_hat(self):
        """Hat.build seats Construct's roots, in any order, as a hat under
        no layer; a refit's roots, in any order, refresh it to the
        declared layer."""
        tree = build(n=32, d=2, p=4, semigroup=sum_of_dim(0))
        roots = roots_of(build(n=32, d=2, p=4))
        reverse = np.arange(len(roots))[::-1]
        hat = Hat.build(roots.take(reverse), d=2, n=32, p=4)
        for col in ("lo", "hi", "nleaves"):
            np.testing.assert_array_equal(getattr(hat, col), getattr(tree.hat, col))
        assert hat.semigroup is NO_LAYERS and hat.aggs.data.shape == (hat.size_nodes(), 0)
        hat.refresh_aggregates(roots_of(tree).take(reverse), tree.semigroup)
        np.testing.assert_array_equal(hat.aggs.data, tree.hat.aggs.data)

    def test_missing_root_detected(self):
        roots = self._roots()
        with pytest.raises(ProtocolError, match="no root for hat leaf row"):
            Hat.build(roots.islice(0, len(roots) - 1), d=2, n=32, p=4)

    def test_duplicate_row_detected(self):
        roots = self._roots()
        with pytest.raises(ProtocolError, match="duplicate row"):
            Hat.build(
                RecordBatch.concat([roots, roots.islice(0, 1)]), d=2, n=32, p=4
            )

    @pytest.mark.parametrize("row", ["internal", "past the end", "negative"])
    def test_unknown_row_detected(self, row):
        roots = self._roots()
        shape = hat_shape(4, 2)
        bad = {"internal": 0, "past the end": shape.size, "negative": -1}[row]
        assert bad < 0 or bad >= shape.size or not shape.leaf[bad]
        with pytest.raises(ProtocolError, match="unknown row"):
            rows = np.concatenate([[bad], roots.col("row")[1:]])
            Hat.build(roots.with_col("row", rows), d=2, n=32, p=4)

    def test_tree_count_mismatch_detected(self):
        """An owner whose inbox holds another number of groups than the
        shape names for it must not stack them under the shape's rows."""
        shape = hat_shape(4, 2)
        assert len(shape.stack_rows(0, 1, 2)) == 2  # log p phase-1 trees each
        k, d = 8, 2
        inbox = RecordBatch(
            "dist.srecord",
            {
                "key": np.arange(k, dtype=np.int64),
                "ranks": np.repeat(np.arange(k, dtype=np.int64)[:, None], d, axis=1),
                "pid": np.arange(k, dtype=np.int64),
            },
            k,
        )
        payload = {"inbox": inbox, "j": 1, "k": k, "d": d, "ns": "t"}
        with pytest.raises(ProtocolError, match="stacks 1 phase-1 trees, the hat shape names 2"):
            get_phase("dist.construct.build_elements_cols")(ProcContext(rank=0, p=4), payload)

    def test_empty_roots_rejected(self):
        from repro.errors import MachineError

        with pytest.raises(MachineError):
            Hat.build(self._roots().islice(0, 0), d=2, n=32, p=4)

    def test_non_power_of_two_p_rejected(self):
        from repro.errors import PowerOfTwoError

        roots = self._roots()
        with pytest.raises(PowerOfTwoError):
            Hat.build(roots, d=2, n=32, p=3)


class TestHatReplicas:
    def test_every_rank_holds_its_own_replica_across_refits(self):
        """Definition 3: each processor holds its own copy of the hat —
        on the serial backend too, where nothing but the contract keeps
        ranks from sharing one object — after a build, a reannotate and
        a lazy refit alike, each equal to rank 0's."""
        from repro.dist import validate_tree
        from repro.dist.construct import hat_key
        from repro.query import aggregate
        from repro.semigroup import sum_of_dim, top_k_ids

        with build(p=8) as tree:
            for refit in (
                lambda: None,
                lambda: tree.reannotate(top_k_ids(2)),
                lambda: tree.run([aggregate(((0.0, 0.5), (0.0, 1.0)), sum_of_dim(1))]),
            ):
                refit()
                hats = tree.machine.fetch_state(hat_key(tree.construct_result.ns))
                assert len({id(hat) for hat in hats}) == tree.p
                assert tree.hat is hats[0] and validate_tree(tree).ok


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
