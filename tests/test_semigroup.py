"""Tests for the semigroup substrate (associative-function mode algebra)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.semigroup import (
    COUNT,
    Semigroup,
    bounding_box_semigroup,
    count_semigroup,
    id_set,
    max_of_dim,
    min_of_dim,
    moments_of_dim,
    sum_of_dim,
)

ALL_FACTORIES = [
    ("count", count_semigroup),
    ("sum0", lambda: sum_of_dim(0)),
    ("min0", lambda: min_of_dim(0)),
    ("max0", lambda: max_of_dim(0)),
    ("idset", id_set),
    ("bbox2", lambda: bounding_box_semigroup(2)),
    ("moments0", lambda: moments_of_dim(0)),
]


def _sample_values(sg: Semigroup, k: int = 5):
    coords = [(float(i), float(-i)) for i in range(k)]
    return [sg.lift(i, c) for i, c in enumerate(coords)]


@pytest.mark.parametrize("name,factory", ALL_FACTORIES)
class TestLaws:
    """Algebraic laws every semigroup in the library must satisfy."""

    def test_identity_left_right(self, name, factory):
        sg = factory()
        for v in _sample_values(sg):
            assert sg.combine(sg.identity, v) == v
            assert sg.combine(v, sg.identity) == v

    def test_commutative(self, name, factory):
        sg = factory()
        vals = _sample_values(sg)
        for a in vals:
            for b in vals:
                assert sg.combine(a, b) == sg.combine(b, a)

    def test_associative(self, name, factory):
        sg = factory()
        vals = _sample_values(sg, 4)
        for a in vals:
            for b in vals:
                for c in vals:
                    assert sg.combine(sg.combine(a, b), c) == sg.combine(a, sg.combine(b, c))

    def test_fold_empty_is_identity(self, name, factory):
        sg = factory()
        assert sg.fold([]) == sg.identity

    def test_fold_order_independent(self, name, factory):
        sg = factory()
        vals = _sample_values(sg)
        assert sg.fold(vals) == sg.fold(list(reversed(vals)))


class TestCount:
    def test_counts(self):
        assert COUNT.fold([COUNT.lift(i, (0.0,)) for i in range(7)]) == 7

    def test_lift_is_one(self):
        assert COUNT.lift(99, (1.0, 2.0)) == 1


class TestSumMinMax:
    def test_sum_of_dim(self):
        sg = sum_of_dim(1)
        vals = [sg.lift(i, (0.0, float(i))) for i in range(4)]
        assert sg.fold(vals) == 0 + 1 + 2 + 3

    def test_min_identity_is_inf(self):
        sg = min_of_dim(0)
        assert sg.identity == math.inf
        assert sg.fold([sg.lift(0, (3.0,)), sg.lift(1, (1.0,))]) == 1.0

    def test_max_identity_is_neg_inf(self):
        sg = max_of_dim(0)
        assert sg.identity == -math.inf
        assert sg.fold([sg.lift(0, (3.0,)), sg.lift(1, (5.0,))]) == 5.0

    @given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=20))
    def test_sum_matches_builtin(self, xs: list[float]):
        sg = sum_of_dim(0)
        got = sg.fold([sg.lift(i, (x,)) for i, x in enumerate(xs)])
        assert got == pytest.approx(sum(xs))


class TestIdSet:
    def test_collects_ids(self):
        sg = id_set()
        got = sg.fold([sg.lift(i, (0.0,)) for i in [3, 1, 4]])
        assert got == frozenset({1, 3, 4})


class TestBoundingBox:
    def test_tight_box(self):
        sg = bounding_box_semigroup(2)
        vals = [sg.lift(0, (1.0, 5.0)), sg.lift(1, (3.0, 2.0))]
        mins, maxs = sg.fold(vals)
        assert mins == (1.0, 2.0)
        assert maxs == (3.0, 5.0)

    def test_identity_is_empty_box(self):
        sg = bounding_box_semigroup(1)
        mins, maxs = sg.identity
        assert mins[0] == math.inf and maxs[0] == -math.inf


class TestMoments:
    def test_mean_variance_reconstruction(self):
        sg = moments_of_dim(0)
        xs = [1.0, 2.0, 3.0, 4.0]
        cnt, s, ss = sg.fold([sg.lift(i, (x,)) for i, x in enumerate(xs)])
        assert cnt == 4
        mean = s / cnt
        var = ss / cnt - mean * mean
        assert mean == pytest.approx(2.5)
        assert var == pytest.approx(1.25)
