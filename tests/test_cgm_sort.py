"""Tests for the CGM sample sort (the paper's black-box parallel sort)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm import Machine, RecordBatch, sample_sort_cols, sorted_and_balanced


def distribute(keys: list, p: int) -> list[RecordBatch]:
    """Chunk ``keys`` over ``p`` ranks as batches of a key column ``k``
    and the global input position ``i``."""
    chunk = -(-max(1, len(keys)) // p)
    k = np.asarray(keys, dtype=np.int64)
    return [
        RecordBatch(
            "t.sort",
            {
                "k": k[r * chunk:(r + 1) * chunk],
                "i": np.arange(len(keys), dtype=np.int64)[r * chunk:(r + 1) * chunk],
            },
        )
        for r in range(p)
    ]


def flat(out: list[RecordBatch], col: str = "k") -> list:
    """One column over all ranks in rank-major order."""
    return [v for b in out for v in b.col(col).tolist()]


class TestSampleSort:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_sorts_and_balances(self, p):
        rng = random.Random(p)
        xs = [rng.randrange(10_000) for _ in range(257)]
        mach = Machine(p)
        out = sample_sort_cols(mach, distribute(xs, p), "k")
        assert flat(out) == sorted(xs)
        assert sorted_and_balanced(mach, [b.col("k").tolist() for b in out], key=lambda x: x)

    def test_constant_rounds(self):
        """The round count must not depend on the input size (Goodrich)."""
        rounds = []
        for size in (40, 400, 4000):
            mach = Machine(4)
            xs = list(range(size))
            random.Random(0).shuffle(xs)
            sample_sort_cols(mach, distribute(xs, 4), "k")
            rounds.append(mach.metrics.rounds)
        assert rounds == [4, 4, 4]

    def test_heavy_duplicates(self):
        xs = [7] * 100 + [3] * 50 + [9] * 30
        random.Random(1).shuffle(xs)
        mach = Machine(4)
        out = sample_sort_cols(mach, distribute(xs, 4), "k")
        assert flat(out) == sorted(xs)
        # duplicates must not all land on one processor
        assert max(len(b) for b in out) <= -(-len(xs) // 4)

    def test_stability_of_equal_keys(self):
        """Equal keys keep their original global (rank, index) order."""
        mach = Machine(4)
        out = sample_sort_cols(mach, distribute([5] * 20, 4), "k")
        assert flat(out, "i") == list(range(20))

    def test_empty_input(self):
        mach = Machine(4)
        out = sample_sort_cols(mach, distribute([], 4), "k")
        assert [len(b) for b in out] == [0, 0, 0, 0]
        assert mach.metrics.rounds == 4

    def test_single_item(self):
        mach = Machine(4)
        batches = distribute([], 4)
        batches[1] = distribute([42], 1)[0]
        out = sample_sort_cols(mach, batches, "k")
        assert flat(out) == [42]

    def test_skewed_initial_distribution(self):
        xs = list(range(100, 0, -1))
        mach = Machine(4)
        batches = distribute([], 4)
        batches[0] = distribute(xs, 1)[0]
        out = sample_sort_cols(mach, batches, "k")
        assert flat(out) == sorted(xs)
        assert max(len(b) for b in out) <= 25

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_property_sorted_balanced(self, xs: list[int]):
        mach = Machine(4)
        out = sample_sort_cols(mach, distribute(xs, 4), "k")
        assert flat(out) == sorted(xs)
        if xs:
            assert max(len(b) for b in out) <= -(-len(xs) // 4)

    def test_h_relation_reasonable(self):
        """No processor sends/receives more than O(N/p + samples)."""
        xs = list(range(400))
        random.Random(2).shuffle(xs)
        mach = Machine(4)
        sample_sort_cols(mach, distribute(xs, 4), "k")
        cap = 2 * (len(xs) // 4) + 4 * 4 * 4  # slack for sample exchange
        assert mach.metrics.max_h <= cap
