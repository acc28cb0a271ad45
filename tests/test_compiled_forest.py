"""Compiled forest ≡ reference canonical walk, bit for bit.

The compiled walk (:meth:`repro.seq.compiled.CompiledForest.walk`) must
reproduce :meth:`repro.seq.range_tree.RangeTree.canonical_pairs` exactly
— same selections in the same emission order, same per-box visit counts
— because Search step 5 and the sequential oracle's batched queries both
ride the lowering.  These tests pin the walk-level identity directly,
Algorithm Search's forest output against per-subquery ``canonical``
calls, the engine's answers against the sequential oracle, the tiling
arithmetic, and the cache discipline around refits.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.dist import DistributedRangeTree
from repro.query import QueryBatch, aggregate
from repro.semigroup import COUNT, sum_of_dim
from repro.seq import bf_aggregate
from repro.seq.range_tree import SequentialRangeTree
from repro.seq.segment_tree import WalkStats
from repro.workloads import make_points, uniform_points

from tests.helpers import random_boxes
from tests.test_compiled_hat import (
    BACKENDS,
    _mixed_batch,
    _rank_boxes,
    reference_search,
)


def _forest_elements(tree):
    return [el for store in tree.forest_store for el in store.values()]


def _object_walk(el, boxes):
    """Per-box object walk: structural selection keys, per-box visits.

    Keys are ``(compiled tree index, heap id)`` — the index lookup by
    object identity doubles as a check that the compile references the
    very trees the object walk selects from.
    """
    tix = {id(t): i for i, t in enumerate(el.compiled().trees)}
    sels, visits = [], []
    for box in boxes:
        st = WalkStats()
        pairs = el.canonical_pairs(box, stats=st)
        sels.append([(tix[id(t)], node) for t, node in pairs])
        visits.append(st.nodes_visited)
    return sels, visits


def _compiled_walk(el, boxes):
    comp = el.compiled()
    los = np.asarray([b.los for b in boxes], dtype=np.int64)
    his = np.asarray([b.his for b in boxes], dtype=np.int64)
    sel_q, sel_n, vis = comp.walk(los, his)
    sels = [[] for _ in boxes]
    for q, j in zip(sel_q, sel_n):
        sels[int(q)].append((int(comp.tree_of[j]), int(comp.heap[j])))
    return sels, [int(v) for v in vis]


class TestWalkBitIdentity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_object_walk(self, d):
        # 48 points pad to n=64 with sentinel pids in the forest
        pts = uniform_points(48, d, seed=30 + d)
        with DistributedRangeTree.build(pts, p=4) as tree:
            rng = np.random.default_rng(40 + d)
            for el in _forest_elements(tree):
                boxes = _rank_boxes(rng, 25, d, tree.hat.n)
                exp_sels, exp_vis = _object_walk(el, boxes)
                got_sels, got_vis = _compiled_walk(el, boxes)
                # same selections, same per-query emission order
                assert got_sels == exp_sels
                # same visit accounting (empty boxes visit nothing)
                assert got_vis == exp_vis

    def test_single_leaf_elements(self):
        # n == p: every forest element is a single point
        pts = uniform_points(8, 2, seed=51)
        with DistributedRangeTree.build(pts, p=8) as tree:
            rng = np.random.default_rng(52)
            els = _forest_elements(tree)
            assert els and all(el.nleaves == 1 for el in els)
            for el in els:
                boxes = _rank_boxes(rng, 12, 2, tree.hat.n)
                assert _object_walk(el, boxes) == _compiled_walk(el, boxes)

    def test_empty_batch(self):
        pts = uniform_points(16, 2, seed=53)
        with DistributedRangeTree.build(pts, p=4) as tree:
            el = _forest_elements(tree)[0]
            comp = el.compiled()
            empty = np.empty((0, 2), dtype=np.int64)
            sel_q, sel_n, vis = comp.walk(empty, empty)
            assert len(sel_q) == len(sel_n) == len(vis) == 0


class TestSeqBatchedAPIs:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_batched_match_scalar_both_planes(self, d):
        rng = np.random.default_rng(60 + d)
        pts = make_points("uniform", 37, d, seed=60 + d)
        t = SequentialRangeTree(pts, sum_of_dim(0))
        boxes = random_boxes(rng, 20, d)
        expected = (
            [t.count(b) for b in boxes],
            [t.aggregate(b) for b in boxes],
            [t.report(b) for b in boxes],
        )
        got = (
            t.count_many(boxes),
            t.aggregate_many(boxes),
            t.report_many(boxes),
        )
        assert repr(got) == repr(expected)

    def test_batched_stats_match_scalar(self):
        pts = make_points("uniform", 48, 2, seed=71)
        t = SequentialRangeTree(pts, COUNT)
        boxes = random_boxes(np.random.default_rng(72), 15, 2)
        rbs = [t.rank_box(b) for b in boxes]
        st_obj, st_cmp = WalkStats(), WalkStats()
        for rb in rbs:
            t.core.count(rb, st_obj)
            t.core.report(rb, st_obj)
        t.core.count_many(rbs, st_cmp)
        t.core.report_many(rbs, st_cmp)
        assert (
            st_obj.nodes_visited,
            st_obj.nodes_selected,
            st_obj.points_reported,
        ) == (
            st_cmp.nodes_visited,
            st_cmp.nodes_selected,
            st_cmp.points_reported,
        )


class TestSearchOutputParity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_planes_agree_on_search_output(self, d):
        # a hot spot: oversubscribed groups are replicated, so subqueries
        # are served by *copies* — the forest output must not notice
        pts = make_points("uniform", 48, d, seed=700 + d)
        boxes = random_boxes(np.random.default_rng(800 + d), 10, d)
        boxes += [boxes[0]] * 12
        with DistributedRangeTree.build(pts, p=4) as tree:
            tree.reset_metrics()
            out = tree.search(boxes, collect_leaves=True)
            forest_ops = next(
                s.ops for s in tree.metrics.steps if s.label == "search:forest"
            )
            _hat, forest_sels, demands, _walk, ref_forest_ops = reference_search(
                tree, boxes, collect_leaves=True
            )
        assert (
            sorted((f for per in out.forest_selections for f in per), key=repr)
            == forest_sels
        )
        assert out.demands == demands
        assert sum(forest_ops) == ref_forest_ops
        assert max(out.copy_counts) > 1
        # step 4's guarantee: nobody serves more than ~|Q'|/p subqueries
        cap = -(-out.total_subqueries // tree.p)
        assert max(out.subqueries_per_proc) <= 2 * cap

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_parity_across_planes_per_backend(self, backend):
        """On every backend the engine answers what the sequential range
        tree answers.  The process backend additionally exercises the
        pickle path: the compiled lowering and pid caches must rebuild on
        the worker."""
        pts = make_points("clustered", 48, 2, seed=87)
        boxes = random_boxes(np.random.default_rng(88), 9, 2)
        batch = _mixed_batch(boxes)
        seq = SequentialRangeTree(pts)
        with DistributedRangeTree.build(pts, p=4, backend=backend) as tree:
            got = tree.run(batch).values()
        for q, v in zip(batch, got):
            if q.mode == "count":
                assert v == seq.count(q.box)
            elif q.mode == "report":
                assert v == seq.report(q.box)
            else:
                assert v == pytest.approx(bf_aggregate(pts, q.box, q.semigroup))


class TestCompileCache:
    def test_compile_is_cached(self):
        pts = uniform_points(32, 2, seed=14)
        with DistributedRangeTree.build(pts, p=4) as tree:
            el = _forest_elements(tree)[0]
            c1 = el.compiled()
            assert el.compiled() is c1

    def test_reannotate_invalidates_compiled_cache(self):
        pts = uniform_points(32, 2, seed=15)
        with DistributedRangeTree.build(pts, p=4) as tree:
            el = _forest_elements(tree)[0]
            c1 = el.compiled()
            _ = el.pid_block
            fresh = [0 if pid < 0 else 1 for pid in el.pids]
            el.reannotate(fresh, COUNT)
            assert el.tree._compiled is None
            assert el.compiled() is not c1

    def test_refit_then_query_matches_object_plane(self):
        """The PR 8 cache-discipline bug class, on the forest side: a
        per-query-semigroup refit must never leave stale compiled
        aggregates behind."""
        pts = uniform_points(32, 2, seed=16)
        with DistributedRangeTree.build(pts, p=4) as tree:
            els = _forest_elements(tree)
            compiles = [el.compiled() for el in els]
            boxes = random_boxes(np.random.default_rng(17), 6, 2)
            batch = QueryBatch([aggregate(b, sum_of_dim(1)) for b in boxes])
            rs = tree.run(batch)  # refits → invalidates → recompiles
            assert all(
                el.compiled() is not c1 for el, c1 in zip(els, compiles)
            )
            # stale compiled aggregates would still be counts, not sums
            assert rs.values() == pytest.approx(
                [bf_aggregate(pts, b, sum_of_dim(1)) for b in boxes]
            )

    def test_pickle_drops_caches(self):
        pts = uniform_points(32, 2, seed=18)
        with DistributedRangeTree.build(pts, p=4) as tree:
            el = _forest_elements(tree)[0]
            el.compiled()
            _ = el.pid_block
            _ = el.all_pids_array()
            clone = pickle.loads(pickle.dumps(el))
            assert clone.tree._compiled is None
            assert clone._pids_arr is None
            assert clone._all_pids_arr is None
            assert clone._pid_block is None
            # and the clone's fresh compile answers identically
            rng = np.random.default_rng(19)
            boxes = _rank_boxes(rng, 10, 2, tree.hat.n)
            assert _compiled_walk(clone, boxes) == _object_walk(el, boxes)


class TestTilingEquivalence:
    def test_row_tilings_match_rows_under(self):
        pts = uniform_points(48, 2, seed=21)
        with DistributedRangeTree.build(pts, p=4) as tree:
            for el in _forest_elements(tree):
                comp = el.compiled()
                for j in range(comp.size_nodes):
                    if not comp.last[j]:
                        continue
                    t = comp.trees[int(comp.tree_of[j])]
                    rows = t.rows_under(int(comp.heap[j]))
                    off = int(comp.row_off[j])
                    ln = int(comp.nleaves[j])
                    np.testing.assert_array_equal(
                        comp.row_block[off : off + ln], rows
                    )

    def test_pid_block_matches_selection_pids(self):
        # padded build: sentinel (negative) pids live in the elements
        pts = uniform_points(48, 2, seed=22)
        with DistributedRangeTree.build(pts, p=4) as tree:
            els = _forest_elements(tree)
            # 48 points pad to 64: sentinels live in the high-rank elements
            assert any((el.pid_block < 0).any() for el in els)
            boxes = _rank_boxes(np.random.default_rng(23), 8, 2, tree.hat.n)
            for el in els:
                comp = el.compiled()
                for box in boxes:
                    for sel in el.canonical(box, stats=WalkStats()):
                        want = el.selection_pids_array(sel)
                        j = next(
                            jj
                            for jj in range(comp.size_nodes)
                            if comp.trees[int(comp.tree_of[jj])] is sel.tree
                            and int(comp.heap[jj]) == sel.node
                        )
                        off = int(comp.row_off[j])
                        ln = int(comp.nleaves[j])
                        np.testing.assert_array_equal(
                            el.pid_block[off : off + ln], want
                        )

    def test_all_pids_array_is_memoized(self):
        pts = uniform_points(32, 2, seed=24)
        with DistributedRangeTree.build(pts, p=4) as tree:
            el = _forest_elements(tree)[0]
            first = el.all_pids_array()
            assert el.all_pids_array() is first
            np.testing.assert_array_equal(
                first, el.pids_array[el.tree.root_tree.order]
            )

    def test_kernel_agg_matrix_matches_decoded(self):
        pts = uniform_points(32, 2, seed=25)
        with DistributedRangeTree.build(
            pts, p=4, semigroup=sum_of_dim(0)
        ) as tree:
            el = _forest_elements(tree)[0]
            comp = el.compiled()
            assert comp.agg_kernel is not None
            last = np.nonzero(comp.last)[0]
            decoded = comp.decode_aggs(last)
            for j, val in zip(last, decoded):
                row = comp.agg_mat[int(j)]
                dec = comp.agg_kernel.decode(row[None, :], 0)
                assert repr(dec) == repr(val)
