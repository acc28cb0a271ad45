"""Tests for internal utilities (repro._util)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro._util import (
    chunks,
    ilog2,
    is_power_of_two,
    next_power_of_two,
    percentiles,
    require_power_of_two,
    stable_argsort,
)
from repro.errors import PowerOfTwoError


class TestPowerOfTwo:
    def test_is_power_of_two_basic(self):
        assert is_power_of_two(1)
        assert is_power_of_two(2)
        assert is_power_of_two(1024)
        assert not is_power_of_two(0)
        assert not is_power_of_two(-4)
        assert not is_power_of_two(3)
        assert not is_power_of_two(6)

    @given(st.integers(min_value=0, max_value=40))
    def test_powers_recognised(self, k: int):
        assert is_power_of_two(1 << k)

    @given(st.integers(min_value=2, max_value=1 << 20))
    def test_next_power_of_two_bounds(self, x: int):
        np2 = next_power_of_two(x)
        assert is_power_of_two(np2)
        assert np2 >= x
        assert np2 // 2 < x

    def test_next_power_of_two_small(self):
        assert next_power_of_two(0) == 1
        assert next_power_of_two(1) == 1
        assert next_power_of_two(2) == 2
        assert next_power_of_two(3) == 4

    @given(st.integers(min_value=0, max_value=40))
    def test_ilog2_roundtrip(self, k: int):
        assert ilog2(1 << k) == k

    def test_ilog2_rejects_non_powers(self):
        with pytest.raises(PowerOfTwoError):
            ilog2(3)
        with pytest.raises(PowerOfTwoError):
            ilog2(0)

    def test_require_power_of_two_message(self):
        with pytest.raises(PowerOfTwoError, match="processor count"):
            require_power_of_two("processor count", 3)
        assert require_power_of_two("n", 8) == 8


class TestChunks:
    def test_even_split(self):
        assert [list(c) for c in chunks([1, 2, 3, 4], 2)] == [[1, 2], [3, 4]]

    def test_ragged_tail(self):
        assert [list(c) for c in chunks([1, 2, 3, 4, 5], 2)] == [[1, 2], [3, 4], [5]]

    def test_empty(self):
        assert list(chunks([], 3)) == []

    def test_bad_size(self):
        with pytest.raises(ValueError):
            list(chunks([1], 0))

    @given(st.lists(st.integers(), max_size=50), st.integers(min_value=1, max_value=10))
    def test_concat_roundtrip(self, xs: list[int], size: int):
        assert [x for c in chunks(xs, size) for x in c] == xs


class TestPercentiles:
    def test_empty_is_none(self):
        assert percentiles([]) == {"p50": None, "p95": None, "p99": None}

    def test_single_value(self):
        assert percentiles([7.0]) == {"p50": 7.0, "p95": 7.0, "p99": 7.0}

    def test_linear_interpolation(self):
        got = percentiles([0.0, 10.0], (50,))
        assert got == {"p50": 5.0}

    def test_known_quartiles(self):
        values = list(range(1, 101))  # 1..100
        got = percentiles(values, (0, 50, 100))
        assert got == {"p0": 1.0, "p50": 50.5, "p100": 100.0}

    def test_unsorted_input(self):
        assert percentiles([3.0, 1.0, 2.0], (50,)) == {"p50": 2.0}

    def test_bad_pct_raises(self):
        with pytest.raises(ValueError):
            percentiles([1.0], (101,))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    def test_bounded_and_monotone(self, xs: list[float]):
        got = percentiles(xs, (0, 50, 95, 100))
        assert min(xs) <= got["p0"] <= got["p50"] <= got["p95"] <= got["p100"] <= max(xs)


class TestLatencyStats:
    def test_summary_shape(self):
        from repro.cgm.metrics import LatencyStats

        stats = LatencyStats("queue")
        for v in (1.0, 2.0, 3.0, 4.0):
            stats.record(v)
        s = stats.summary()
        assert s["count"] == 4
        assert s["mean_ms"] == 2.5
        assert s["max_ms"] == 4.0
        assert s["p50_ms"] == 2.5
        assert s["p50_ms"] <= s["p95_ms"] <= s["p99_ms"] <= s["max_ms"]

    def test_empty_summary_is_none_safe(self):
        from repro.cgm.metrics import LatencyStats

        s = LatencyStats("exec").summary()
        assert s == {
            "count": 0,
            "mean_ms": 0.0,
            "p50_ms": None,
            "p95_ms": None,
            "p99_ms": None,
            "max_ms": 0.0,
        }


_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def _same_as_numpy_stable(keys: np.ndarray) -> None:
    want = np.argsort(keys, kind="stable")
    got = stable_argsort(keys)
    assert got.dtype == want.dtype and np.array_equal(got, want)


class TestStableArgsort:
    """``stable_argsort`` is exactly ``np.argsort(kind="stable")``."""

    @given(st.lists(st.integers(_I64_MIN, _I64_MAX), max_size=200))
    def test_wide_int64_keys(self, keys):
        _same_as_numpy_stable(np.array(keys, dtype=np.int64))

    @given(st.lists(st.integers(-4, 4), max_size=200))
    def test_int64_keys_with_ties(self, keys):
        _same_as_numpy_stable(np.array(keys, dtype=np.int64))

    @given(
        st.lists(
            st.sampled_from([_I64_MIN, _I64_MIN + 1, -1, 0, 1, _I64_MAX - 1, _I64_MAX]),
            max_size=100,
        )
    )
    def test_keys_at_the_int64_extremes(self, keys):
        _same_as_numpy_stable(np.array(keys, dtype=np.int64))

    @given(
        st.lists(
            st.integers(-64, 64).map(lambda k: k / 8) | st.sampled_from([0.0, -0.0]),
            max_size=200,
        )
    )
    def test_dyadic_floats_with_ties_and_signed_zeros(self, keys):
        _same_as_numpy_stable(np.array(keys, dtype=np.float64))

    @pytest.mark.parametrize(
        "keys",
        [
            np.full(50, 7, dtype=np.int64),
            np.full(50, -0.0),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.float64),
            np.array([3], dtype=np.int64),
            np.array([0.5]),
        ],
        ids=["all-equal-int", "all-equal-float", "empty-int", "empty-float", "one-int", "one-float"],
    )
    def test_degenerate_inputs(self, keys):
        _same_as_numpy_stable(keys)
