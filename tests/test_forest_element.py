"""Unit tests for forest elements and distributed record types."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import DistributedRangeTree
from repro.dist.forest import build_forest_element
from repro.dist.records import KIND_SUBQUERY, ForestRootInfo
from repro.errors import GeometryError
from repro.geometry import RankBox
from repro.geometry.box import rank_bounds
from repro.semigroup import COUNT, sum_of_dim
from repro.seq.segment_tree import WalkStats
from repro.workloads import uniform_points

from tests.helpers import reference_tree


def make_element(m=8, d=2, dim=0, seed=0, semigroup=COUNT):
    rng = np.random.default_rng(seed)
    # m points with global ranks: contiguous in `dim`, arbitrary elsewhere
    ranks = np.zeros((m, d), dtype=np.int64)
    ranks[:, dim] = np.arange(16, 16 + m)
    for j in range(d):
        if j != dim:
            ranks[:, j] = rng.permutation(64)[:m]
    values = [semigroup.lift(i, (0.0,) * d) for i in range(m)]
    return build_forest_element(
        forest_id=((5, 3),),
        dim=dim,
        location=2,
        group_rank=10,
        ranks_rows=[tuple(r) for r in ranks],
        pids=list(range(100, 100 + m)),
        values=values,
        semigroup=semigroup,
    ), ranks


class TestForestElement:
    def test_basic_fields(self):
        el, _ = make_element()
        assert el.nleaves == 8
        assert el.location == 2
        assert el.seg == (16, 23)
        assert el.size_records >= 8

    def test_root_info_roundtrip(self):
        el, _ = make_element()
        info = el.root_info()
        assert isinstance(info, ForestRootInfo)
        assert info.path == ((5, 3),)
        assert info.tree_id == ()
        assert info.nleaves == 8
        assert info.location == 2
        assert info.agg == 8  # count over all points

    def test_canonical_walk(self):
        el, ranks = make_element()
        box = RankBox((16, 0), (19, 63))
        expected = sum(1 for r in ranks if 16 <= r[0] <= 19)
        assert sum(s.leaf_count for s in reference_tree(el).canonical(box)) == expected
        assert int(el.soa.walk(*rank_bounds([box])).length.sum()) == expected

    def test_selection_pids(self):
        el, ranks = make_element()
        sel = el.soa.walk(*rank_bounds([RankBox((16, 0), (23, 63))]))
        rows = el.soa.rows_flat(sel.off, sel.length)
        assert sorted(el.pids[rows].tolist()) == list(range(100, 108))

    def test_all_pids(self):
        # rows (and so pids) are held in ascending primary-dimension rank
        el, _ = make_element()
        assert el.pids.tolist() == list(range(100, 108))

    def test_rows_must_ascend_in_the_primary_dimension(self):
        el, ranks = make_element()
        with pytest.raises(GeometryError):
            build_forest_element(
                forest_id=el.forest_id,
                dim=0,
                location=2,
                group_rank=10,
                ranks_rows=ranks[::-1],
                pids=list(range(8)),
                values=[1] * 8,
                semigroup=COUNT,
            )

    def test_stats_override_isolated(self):
        # visits are returned per box by the walk itself: nothing shared
        el, _ = make_element()
        box = RankBox((16, 0), (20, 63))
        st = WalkStats()
        reference_tree(el).canonical(box, stats=st)
        visits = el.soa.walk(*rank_bounds([box, box])).visits
        assert st.nodes_visited > 0
        assert visits.tolist() == [st.nodes_visited] * 2

    def test_reannotate(self):
        sg = sum_of_dim(0)
        el, _ = make_element()
        new_values = [float(i) for i in range(8)]
        el.reannotate(new_values, sg)
        assert el.soa.root_agg() == sum(range(8))
        assert el.root_info().agg == sum(range(8))


class TestRecords:
    def test_forest_root_info_tree_id(self):
        info = ForestRootInfo(
            path=((12, 2), (3, 4)),
            dim=1,
            seg=(0, 7),
            nleaves=8,
            location=1,
            group_rank=5,
            agg=8,
        )
        assert info.tree_id == ((3, 4),)

    def test_subquery_carries_box(self):
        pts = uniform_points(32, 2, seed=81)
        with DistributedRangeTree.build(pts, p=4) as tree:
            box = RankBox((0, 1), (5, 6))
            _sels, subqs, _exps = tree.hat.walk(3, box)
            assert subqs
            for kind, qid, los, his, element, location in subqs:
                assert (kind, qid) == (KIND_SUBQUERY, 3)
                assert RankBox(los, his).interval(1) == (1, 6)
                assert tree.hat.leaf[element]
                assert location == tree.hat.location[element]


class TestElementsInsideBuiltTree:
    def test_every_element_answers_its_own_domain(self):
        pts = uniform_points(64, 2, seed=80)
        tree = DistributedRangeTree.build(pts, p=8)
        for store in tree.forest_store:
            for el in store.values():
                # query the element's whole segment: must select everything
                lo, hi = el.seg
                d = tree.dim
                los = [0] * d
                his = [tree.n - 1] * d
                los[el.dim] = lo
                his[el.dim] = hi
                sel = el.soa.walk(*rank_bounds([RankBox(tuple(los), tuple(his))]))
                assert int(sel.length.sum()) == el.nleaves
