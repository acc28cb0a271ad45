"""Per-query parity between the distributed search and the sequential
canonical decomposition.

The strongest structural guarantee in the paper: for any query, the
union of (a) dimension-d hat nodes selected while walking the hat and
(b) dimension-d nodes selected inside forest elements equals — leaf for
leaf — the canonical selection of the sequential range tree.  We verify
the invariants that follow: disjointness, exact coverage, and identical
total leaf counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DistributedRangeTree
from repro.geometry import Box
from repro.seq import SequentialRangeTree
from repro.workloads import grid_points, uniform_points

from tests.helpers import element_pids, forest_elements, random_boxes


@pytest.fixture(scope="module")
def setup():
    pts = uniform_points(128, 2, seed=90)
    dist = DistributedRangeTree.build(pts, p=8)
    seq = SequentialRangeTree(pts)
    rng = np.random.default_rng(91)
    # a wide box first: it selects hat nodes, so the hat-piece expansion
    # through the forest elements' pids is exercised too
    boxes = [Box([(0.0, 1.0), (0.05, 0.95)])] + random_boxes(rng, 39, 2)
    return pts, dist, seq, boxes


def _distributed_pieces(dist, box):
    """(hat pieces, forest pieces) for one reporting query."""
    out = dist.search([box], report=True)
    hat_pieces = [hs for per in out.hat_selections for hs in per]
    forest_pieces = [fs for per in out.forest_selections for fs in per]
    return hat_pieces, forest_pieces


def _reported_pids(dist, box):
    """The pass's ``(qid, pid)`` pairs for one reporting query, as pids:
    the points under its forest pieces plus its hat pieces expanded
    through the forest elements tiling them."""
    out = dist.search([box], report=True)
    return [pid for per in out.report_pairs for _qid, pid in per]


class TestSelectionParity:
    def test_total_leaf_counts_match_sequential(self, setup):
        pts, dist, seq, boxes = setup
        for box in boxes:
            hat_pieces, forest_pieces = _distributed_pieces(dist, box)
            total = sum(h.nleaves for h in hat_pieces) + sum(
                f.nleaves for f in forest_pieces
            )
            seq_total = seq.count(box)
            assert total == seq_total

    def test_pieces_are_disjoint(self, setup):
        pts, dist, seq, boxes = setup
        for box in boxes[:15]:
            hat_pieces, forest_pieces = _distributed_pieces(dist, box)
            pids = _reported_pids(dist, box)
            assert all(p >= 0 for p in pids)
            assert len(pids) == len(set(pids)), "selection pieces overlap"
            # a point per selected leaf (a real box selects no padding),
            # the hat pieces' through the elements their tilings name
            assert len(pids) == sum(
                piece.nleaves for piece in hat_pieces + forest_pieces
            )
            shape = dist.hat.shape
            held = {leaf: element_pids(stack, t) for leaf, stack, t in forest_elements(dist)}
            for h in hat_pieces:
                tiling = shape.tile_leaf_ids[shape.tile_off[h.node] :][: shape.tile_len[h.node]]
                under = {pid for leaf in tiling.tolist() for pid in held[leaf].tolist()}
                assert len(under) == h.nleaves and under <= set(pids)

    def test_coverage_equals_bruteforce(self, setup):
        from repro.seq import bf_report

        pts, dist, seq, boxes = setup
        for box in boxes[:15]:
            assert sorted(_reported_pids(dist, box)) == bf_report(pts, box)

    def test_selection_count_polylog(self, setup):
        """O(log^d n) pieces per query, distributed or not."""
        pts, dist, seq, boxes = setup
        logn = 7  # log2(128)
        for box in boxes:
            hat_pieces, forest_pieces = _distributed_pieces(dist, box)
            assert len(hat_pieces) + len(forest_pieces) <= 4 * (logn + 1) ** 2

    def test_subquery_fanout_bounded(self, setup):
        """<= 2 forest entries per traversed hat segment tree."""
        pts, dist, seq, boxes = setup
        trees_in_hat = 1 + int((dist.hat.shape.desc >= 0).sum())  # a root, and one per desc
        for box in boxes:
            out = dist.search([box])
            assert out.total_subqueries <= 2 * trees_in_hat


class TestParityOnDegenerateData:
    def test_grid_ties(self):
        pts = grid_points(64, 2, seed=92, cells=4)
        dist = DistributedRangeTree.build(pts, p=4)
        seq = SequentialRangeTree(pts)
        rng = np.random.default_rng(93)
        for box in random_boxes(rng, 20, 2):
            out = dist.search([box])
            total = sum(
                h.nleaves for per in out.hat_selections for h in per
            ) + sum(f.nleaves for per in out.forest_selections for f in per)
            assert total == seq.count(box)

    @pytest.mark.parametrize("d", [1, 3])
    def test_other_dimensions(self, d):
        pts = uniform_points(64, d, seed=94 + d)
        dist = DistributedRangeTree.build(pts, p=4)
        seq = SequentialRangeTree(pts)
        rng = np.random.default_rng(95)
        for box in random_boxes(rng, 10, d):
            out = dist.search([box])
            total = sum(
                h.nleaves for per in out.hat_selections for h in per
            ) + sum(f.nleaves for per in out.forest_selections for f in per)
            assert total == seq.count(box)
