"""Unit tests for forest stacks — a rank's phase-``j`` elements as the
trees of one stack — and distributed record types."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DistributedRangeTree
from repro.dist.forest import build_stack
from repro.dist.records import KIND_SUBQUERY
from repro.errors import GeometryError
from repro.geometry import RankBox
from repro.semigroup import COUNT, NO_LAYERS, annotation_of, sum_of_dim
from repro.seq.compiled import CompiledForest
from repro.seq.segment_tree import WalkStats
from repro.workloads import uniform_points

from tests.helpers import (
    RangeTree,
    element_pids,
    forest_elements,
    hat_walk,
    rank_bounds,
    reference_tree,
)

TREES, WIDTH = 3, 8


def make_stack(d=2, dim=0, seed=0):
    """Three elements of width 8 stacked as Construct stacks a rank's
    phase-``dim`` groups: tree ``t`` holds ranks ``16 + 8t ..`` in
    ``dim`` (contiguous, ascending), arbitrary ones elsewhere."""
    rng = np.random.default_rng(seed)
    ranks = np.zeros((TREES * WIDTH, d), dtype=np.int64)
    ranks[:, dim] = np.arange(16, 16 + TREES * WIDTH)
    for j in range(d):
        if j != dim:
            ranks[:, j] = np.concatenate([rng.permutation(64)[:WIDTH] for _ in range(TREES)])
    stack = build_stack(ranks, np.arange(100, 100 + TREES * WIDTH), dim, WIDTH)
    return stack, ranks.reshape(TREES, WIDTH, d)


def oracle(ranks, t, semigroup=COUNT, values=None):
    """Tree ``t``'s object range tree over its own rows."""
    if values is None:
        values = [semigroup.lift(i, (0.0,)) for i in range(WIDTH)]
    return RangeTree(ranks[t], values, semigroup)


class TestForestStack:
    def test_basic_fields(self):
        stack, ranks = make_stack()
        assert stack.shape == (TREES, WIDTH, 2)
        assert stack.width == WIDTH and len(stack.pids) == TREES * WIDTH
        leaves = sum(t.seg.m for t in oracle(ranks, 0).iter_dim_trees())
        assert stack.size_records == TREES * leaves
        # every tree's primary key slice is its seg, ascending
        primary = stack.keys[0].reshape(TREES, WIDTH) % stack.span
        assert [(int(k[0]), int(k[-1])) for k in primary] == [(16, 23), (24, 31), (32, 39)]

    def test_root_info_roundtrip(self):
        """What Construct broadcasts about each tree of its owner's stack
        — its hat leaf's row, segment and root aggregate — is what the hat
        seats at that row."""
        pts = uniform_points(64, 2, seed=80)
        with DistributedRangeTree.build(pts, p=4, semigroup=sum_of_dim(0)) as tree:
            hat = tree.hat
            for leaf, stack, t in forest_elements(tree):
                assert hat.nleaves[leaf] == stack.width
                assert hat.agg(leaf) == stack.root_aggs()[t]
                want = pts.coords[element_pids(stack, t), 0].sum()
                assert stack.root_aggs().layer(0)[t] == pytest.approx(want)
                key = stack.keys[0].reshape(-1, stack.width)[t] % stack.span
                assert (hat.lo[leaf], hat.hi[leaf]) == (key[0], key[-1])

    def test_canonical_walk(self):
        stack, ranks = make_stack()
        for t in range(TREES):
            box = RankBox((16 + 8 * t, 0), (19 + 8 * t, 63))
            expected = sum(1 for r in ranks[t] if box.los[0] <= r[0] <= box.his[0])
            assert sum(s.leaf_count for s in oracle(ranks, t).canonical(box)) == expected
            sel = CompiledForest.walk([stack], *rank_bounds([box]), np.array([t]))
            assert int(sel.length.sum()) == expected

    def test_selection_pids(self):
        stack, _ranks = make_stack()
        box = RankBox((16, 0), (39, 63))
        sel = CompiledForest.walk([stack], *rank_bounds([box] * TREES), np.arange(TREES))
        rows = stack.rows_flat(sel.off, sel.length)
        for t in range(TREES):
            mine = stack.pids[rows[np.repeat(sel.q, sel.length) == t]]
            assert sorted(mine.tolist()) == list(range(100 + 8 * t, 108 + 8 * t))

    def test_all_pids(self):
        # rows (and so pids) are held tree after tree, in ascending
        # primary-dimension rank
        stack, _ = make_stack()
        assert stack.pids.tolist() == list(range(100, 100 + TREES * WIDTH))
        assert element_pids(stack, 1).tolist() == list(range(108, 116))

    def test_rows_must_ascend_in_the_primary_dimension(self):
        """One vectorised check per stack: any tree out of order fails it."""
        _stack, ranks = make_stack()
        flat = ranks.reshape(-1, 2).copy()
        flat[WIDTH : 2 * WIDTH] = flat[WIDTH : 2 * WIDTH][::-1]  # tree 1 descends
        with pytest.raises(GeometryError, match="ascend in dimension 0"):
            build_stack(flat, np.arange(len(flat)), 0, WIDTH)

    def test_stats_override_isolated(self):
        # visits are returned per box by the walk itself: nothing shared
        stack, ranks = make_stack()
        box = RankBox((16, 0), (36, 63))
        for t in range(TREES):
            st = WalkStats()
            oracle(ranks, t).canonical(box, stats=st)
            sel = CompiledForest.walk([stack], *rank_bounds([box, box]), np.array([t, t]))
            visits = sel.visits
            assert st.nodes_visited > 0
            assert visits.tolist() == [st.nodes_visited] * 2

    def test_reannotate(self):
        """A stack is born under no layer; annotating it folds one."""
        stack, _ = make_stack()
        assert stack.aggs.kernel == NO_LAYERS.kernel and stack.aggs.data.shape[1] == 0
        stack.annotate([(float(i),) for i in range(TREES * WIDTH)], annotation_of(sum_of_dim(0)))
        assert stack.root_aggs().layer(0).to_list() == [
            sum(range(t * WIDTH, (t + 1) * WIDTH)) for t in range(TREES)
        ]


class TestRecords:
    def test_subquery_carries_box(self):
        pts = uniform_points(32, 2, seed=81)
        with DistributedRangeTree.build(pts, p=4) as tree:
            box = RankBox((0, 1), (5, 6))
            _sels, subqs, _exps = hat_walk(tree.hat, 3, box)
            assert subqs
            for kind, qid, los, his, element, location in subqs:
                assert (kind, qid) == (KIND_SUBQUERY, 3)
                assert RankBox(los, his).interval(1) == (1, 6)
                assert tree.hat.shape.leaf[element]
                assert location == tree.hat.shape.location[element]


class TestElementsInsideBuiltTree:
    def test_every_element_answers_its_own_domain(self):
        pts = uniform_points(64, 2, seed=80)
        tree = DistributedRangeTree.build(pts, p=8)
        hat = tree.hat
        for leaf, stack, t in forest_elements(tree):
            # query the element's whole segment: must select everything,
            # and exactly the points its oracle holds
            d, dim = tree.dim, int(hat.shape.dim[leaf])
            los, his = [0] * d, [tree.n - 1] * d
            los[dim], his[dim] = int(hat.lo[leaf]), int(hat.hi[leaf])
            box = RankBox(tuple(los), tuple(his))
            sel = CompiledForest.walk([stack], *rank_bounds([box]), np.array([t]))
            assert int(sel.length.sum()) == stack.width == hat.nleaves[leaf]
            got = stack.pids[stack.rows_flat(sel.off, sel.length)]
            want = element_pids(stack, t)[reference_tree(tree, leaf).report(
                RankBox(tuple(los), tuple(his))
            )]
            assert sorted(got.tolist()) == sorted(want.tolist())
