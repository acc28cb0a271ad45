"""Tests for the geometric substrate: points, boxes, rank space."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DimensionMismatch, EmptyPointSet, GeometryError
from repro.geometry import (
    Box,
    Interval,
    Point,
    PointSet,
    RankBox,
    RankSpace,
    pad_to_power_of_two,
)

from tests.helpers import rank_bounds


class TestPoint:
    def test_basic(self):
        p = Point((1.0, 2.0))
        assert p.dim == 2
        assert p[0] == 1.0
        assert list(p) == [1.0, 2.0]
        assert len(p) == 2

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            Point(())

    def test_frozen(self):
        p = Point((1.0,))
        with pytest.raises(Exception):
            p.coords = (2.0,)  # type: ignore[misc]


class TestPointSet:
    def test_from_tuples(self):
        ps = PointSet([(1.0, 2.0), (3.0, 4.0)])
        assert ps.n == 2
        assert ps.dim == 2
        assert ps.point_id(0) == 0
        assert ps[1].coords == (3.0, 4.0)

    def test_from_flat_list_is_1d(self):
        ps = PointSet(np.array([1.0, 2.0, 3.0]))
        assert ps.dim == 1
        assert ps.n == 3

    def test_custom_ids(self):
        ps = PointSet([(0.0,), (1.0,)], ids=[10, 20])
        assert ps.point_id(1) == 20

    def test_duplicate_ids_rejected(self):
        with pytest.raises(GeometryError):
            PointSet([(0.0,), (1.0,)], ids=[7, 7])

    @pytest.mark.parametrize("structure", ["sequential", "distributed", "dynamic"])
    def test_negative_ids_rejected_at_the_boundary(self, structure):
        """Negative ids name the padding sentinels: report filters them
        out and the refit's id lookup would collide with them, so six
        such points used to count 6 and report 4.  No structure takes one."""
        from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree
        from repro.seq import SequentialRangeTree

        coords = [(0.1 * i, 0.1 * i) for i in range(1, 7)]
        ids = [-1, -2, 5, 6, 7, 8]
        with pytest.raises(GeometryError, match="point ids must be >= 0"):
            if structure == "sequential":
                SequentialRangeTree(PointSet(coords, ids=ids))
            elif structure == "distributed":
                DistributedRangeTree.build(PointSet(coords, ids=ids), p=2)
            else:
                with DynamicDistributedRangeTree.build(coords[2:], p=2) as dyn:
                    n = len(dyn)
                    try:
                        dyn.insert((0.5, 0.5), pid=-7)
                    finally:
                        assert len(dyn) == n  # rejected before any mutation

    def test_wrong_id_count_rejected(self):
        with pytest.raises(GeometryError):
            PointSet([(0.0,), (1.0,)], ids=[1])

    def test_empty_rejected(self):
        with pytest.raises(EmptyPointSet):
            PointSet([])

    def test_nonfinite_rejected(self):
        with pytest.raises(GeometryError):
            PointSet([(float("nan"), 0.0)])
        with pytest.raises(GeometryError):
            PointSet([(float("inf"), 0.0)])

    def test_coords_read_only(self):
        ps = PointSet([(1.0, 2.0)])
        with pytest.raises(ValueError):
            ps.coords[0, 0] = 9.0

    def test_column_and_bounds(self):
        ps = PointSet([(1.0, 5.0), (2.0, 4.0)])
        assert list(ps.column(1)) == [5.0, 4.0]
        mins, maxs = ps.bounding_box()
        assert list(mins) == [1.0, 4.0]
        assert list(maxs) == [2.0, 5.0]
        with pytest.raises(DimensionMismatch):
            ps.column(5)

    def test_subset_preserves_ids(self):
        ps = PointSet([(0.0,), (1.0,), (2.0,)], ids=[5, 6, 7])
        sub = ps.subset([2, 0])
        assert list(sub.ids) == [7, 5]

    def test_iteration(self):
        ps = PointSet([(1.0, 2.0), (3.0, 4.0)])
        pts = list(ps)
        assert all(isinstance(p, Point) for p in pts)
        assert pts[0].coords == (1.0, 2.0)


class TestInterval:
    def test_contains(self):
        iv = Interval(1.0, 2.0)
        assert iv.contains(1.0) and iv.contains(2.0) and iv.contains(1.5)
        assert not iv.contains(0.999)
        assert iv.length == 1.0

    def test_inverted_rejected(self):
        with pytest.raises(GeometryError):
            Interval(2.0, 1.0)


class TestBox:
    def test_contains_point(self):
        b = Box([(0.0, 1.0), (2.0, 3.0)])
        assert b.contains_point((0.5, 2.5))
        assert b.contains_point((0.0, 3.0))  # closed boundary
        assert not b.contains_point((1.5, 2.5))

    def test_contains_rows_vectorised(self):
        b = Box([(0.0, 1.0)])
        rows = np.array([[0.5], [1.5], [1.0]])
        assert list(b.contains_rows(rows)) == [True, False, True]

    def test_dimension_mismatch(self):
        b = Box([(0.0, 1.0)])
        with pytest.raises(DimensionMismatch):
            b.contains_point((0.5, 0.5))

    @pytest.mark.parametrize(
        "coords, got", [(0.5, ()), ([[0.5, 0.5]], (1, 2)), ((0.5,), 1)]
    )
    def test_wrong_shape_is_a_dimension_mismatch_naming_it(self, coords, got):
        with pytest.raises(DimensionMismatch, match="dimension 2") as exc:
            Box([(0.0, 1.0), (0.0, 1.0)]).contains_point(coords)
        assert exc.value.got == got

    def test_stack(self):
        lo, hi = Box.stack([Box([(0.0, 1.0), (2.0, 3.0)]), Box([(4.0, 5.0), (6.0, 7.0)])])
        assert lo.tolist() == [[0.0, 2.0], [4.0, 6.0]] and lo.dtype == np.float64
        assert hi.tolist() == [[1.0, 3.0], [5.0, 7.0]]
        assert Box.stack([])[0].shape == (0, 0)
        with pytest.raises(DimensionMismatch):
            Box.stack([Box([(0.0, 1.0)]), Box([(0.0, 1.0), (0.0, 1.0)])])

    def test_inverted_rejected(self):
        with pytest.raises(GeometryError):
            Box([(1.0, 0.0)])

    def test_empty_dims_rejected(self):
        with pytest.raises(GeometryError):
            Box([])

    def test_around_point(self):
        b = Box.around_point((0.5, 0.5), 0.25)
        assert b.interval(0).lo == 0.25
        assert b.interval(1).hi == 0.75

    def test_full(self):
        b = Box.full(3, 0.0, 1.0)
        assert b.dim == 3
        assert b.volume() == 1.0

    def test_equality_and_hash(self):
        a = Box([(0.0, 1.0)])
        b = Box([(0.0, 1.0)])
        c = Box([(0.0, 2.0)])
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestRankBox:
    def test_empty_detection(self):
        rb = RankBox((3, 0), (2, 5))
        assert rb.is_empty()
        rb2 = RankBox((0, 0), (2, 5))
        assert not rb2.is_empty()

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(GeometryError):
            RankBox((0,), (1, 2))


class TestRankSpace:
    def test_ranks_are_permutations(self):
        ps = PointSet([(3.0, 1.0), (1.0, 2.0), (2.0, 0.0)])
        rs = RankSpace(ps)
        for j in range(2):
            assert sorted(rs.ranks[:, j]) == [0, 1, 2]

    def test_rank_order_matches_coords(self):
        ps = PointSet([(3.0,), (1.0,), (2.0,)])
        rs = RankSpace(ps)
        assert list(rs.ranks[:, 0]) == [2, 0, 1]

    def test_ties_broken_by_insertion_order(self):
        ps = PointSet([(5.0,), (5.0,), (5.0,)])
        rs = RankSpace(ps)
        assert list(rs.ranks[:, 0]) == [0, 1, 2]

    def test_to_rank_box_exact(self):
        ps = PointSet([(1.0,), (2.0,), (3.0,), (4.0,)])
        rs = RankSpace(ps)
        rb = rs.to_rank_box(Box([(1.5, 3.5)]))
        assert rb.los == (1,) and rb.his == (2,)

    def test_to_rank_box_boundary_inclusive(self):
        ps = PointSet([(1.0,), (2.0,), (3.0,)])
        rs = RankSpace(ps)
        rb = rs.to_rank_box(Box([(2.0, 3.0)]))
        assert rb.los == (1,) and rb.his == (2,)

    def test_to_rank_box_duplicates_all_included(self):
        ps = PointSet([(2.0,), (2.0,), (1.0,)])
        rs = RankSpace(ps)
        rb = rs.to_rank_box(Box([(2.0, 2.0)]))
        # both duplicates of 2.0 must be captured
        assert rb.his[0] - rb.los[0] + 1 == 2

    def test_to_rank_box_empty_interval(self):
        ps = PointSet([(1.0,), (3.0,)])
        rs = RankSpace(ps)
        rb = rs.to_rank_box(Box([(1.5, 2.5)]))
        assert rb.is_empty()

    def test_dim_mismatch(self):
        ps = PointSet([(1.0, 2.0)])
        with pytest.raises(DimensionMismatch):
            RankSpace(ps).to_rank_box(Box([(0.0, 1.0)]))

    @given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False), min_size=2, max_size=30))
    @settings(max_examples=50)
    def test_rank_box_membership_matches_real(self, xs: list[float]):
        """A point matches the rank box iff it matches the real box."""
        ps = PointSet([(x,) for x in xs])
        rs = RankSpace(ps)
        box = Box([(0.25, 0.75)])
        rb = rs.to_rank_box(box)
        for i, x in enumerate(xs):
            real = 0.25 <= x <= 0.75
            in_rank = rb.los[0] <= rs.ranks[i, 0] <= rb.his[0]
            assert real == in_rank


def _scalar_rank_box(space: RankSpace, box: Box) -> RankBox:
    """The per-box translation the batch form replaced: 2·d scalar searches."""
    los, his = [], []
    for j in range(space.dim):
        col = space.sorted_coords(j)
        los.append(int(np.searchsorted(col, box.lo[j], side="left")))
        his.append(int(np.searchsorted(col, box.hi[j], side="right")) - 1)
    return RankBox(tuple(los), tuple(his))


#: a coarse grid: duplicate coordinates, and box faces that hit them exactly
_GRID = st.integers(0, 6).map(lambda k: k / 4)
#: faces on the grid, between grid values, or wholly outside the data
_FACE = st.one_of(_GRID, st.sampled_from([-3.0, -0.125, 0.375, 0.8, 1.6, 9.0]))


class TestBatchTranslation:
    @given(data=st.data(), d=st.integers(1, 3))
    @settings(max_examples=120, deadline=None)
    def test_batch_equals_per_box_row_for_row(self, data, d):
        pts = data.draw(st.lists(st.tuples(*[_GRID] * d), min_size=1, max_size=24))
        faces = data.draw(
            st.lists(st.tuples(*[st.tuples(_FACE, _FACE)] * d), max_size=12)
        )
        boxes = [Box([sorted(pair) for pair in f]) for f in faces]
        ranked = pad_to_power_of_two(PointSet(pts))
        los, his = ranked.to_rank_bounds(*Box.stack(boxes))
        assert los.shape == his.shape == (len(boxes), d)
        assert los.dtype == his.dtype == np.int64
        coords = np.asarray(pts, dtype=np.float64)
        for i, box in enumerate(boxes):
            want = _scalar_rank_box(ranked.space, box)
            assert (tuple(los[i]), tuple(his[i])) == (want.los, want.his)
            assert ranked.to_rank_box(box) == want  # the m = 1 case
            inside = np.all(
                (ranked.space.ranks >= los[i]) & (ranked.space.ranks <= his[i]), axis=1
            )
            assert inside.tolist() == box.contains_rows(coords).tolist()
            assert want.is_empty() == bool((los[i] > his[i]).any())

    def test_wrong_width_is_a_dimension_mismatch(self):
        space = RankSpace(PointSet([(1.0, 2.0)]))
        with pytest.raises(DimensionMismatch):
            space.to_rank_bounds(np.zeros((3, 1)), np.ones((3, 1)))

    def test_rank_bounds_stacks_rank_boxes(self):
        pair = rank_bounds([RankBox((1, 2), (3, 4)), RankBox((5, 6), (7, 8))])
        assert pair[0].tolist() == [[1, 2], [5, 6]] and pair[1].tolist() == [[3, 4], [7, 8]]
        assert pair[0].dtype == pair[1].dtype == np.int64
        assert rank_bounds([])[0].shape == (0, 0)
        with pytest.raises(DimensionMismatch):
            rank_bounds([RankBox((1,), (2,)), RankBox((1, 2), (3, 4))])


class TestPadding:
    def test_pads_to_power_of_two(self):
        ps = PointSet([(float(i),) for i in range(5)])
        rp = pad_to_power_of_two(ps)
        assert rp.n == 8
        assert rp.n_real == 5

    def test_minimum_respected(self):
        ps = PointSet([(0.0,), (1.0,)])
        rp = pad_to_power_of_two(ps, minimum=16)
        assert rp.n == 16

    def test_sentinel_ranks_above_real(self):
        ps = PointSet([(float(i), float(-i)) for i in range(5)])
        rp = pad_to_power_of_two(ps)
        for row in range(rp.n_real, rp.n):
            assert all(rp.ranks[row] >= rp.n_real)

    def test_sentinel_ids_negative_distinct(self):
        ps = PointSet([(float(i),) for i in range(3)])
        rp = pad_to_power_of_two(ps)
        sids = rp.ids[rp.n_real:]
        assert all(s < 0 for s in sids)
        assert len(set(int(s) for s in sids)) == len(sids)

    def test_queries_cannot_select_sentinels(self):
        ps = PointSet([(float(i),) for i in range(5)])
        rp = pad_to_power_of_two(ps)
        rb = rp.to_rank_box(Box([(-100.0, 100.0)]))
        assert rb.his[0] == rp.n_real - 1

    def test_exact_power_needs_no_padding(self):
        ps = PointSet([(float(i),) for i in range(8)])
        rp = pad_to_power_of_two(ps)
        assert rp.n == 8 and rp.n_real == 8
