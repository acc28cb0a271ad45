"""Tests for the paper's segment tree (Section 2.1, Figure 1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError, PowerOfTwoError
from repro.seq.segment_tree import SegTree


def contiguous(m: int) -> SegTree:
    return SegTree(np.arange(m, dtype=np.int64))


class TestStructure:
    def test_figure1_exact_rendering(self):
        """Reproduces the paper's Figure 1 for the [1,8] segment tree."""
        expected = (
            "[1,8]\n"
            "[1,5) [5,8]\n"
            "[1,3) [3,5) [5,7) [7,8]\n"
            "[1,2) [2,3) [3,4) [4,5) [5,6) [6,7) [7,8) [8,8]"
        )
        assert contiguous(8).render() == expected

    def test_sizes(self):
        t = contiguous(8)
        assert t.m == 8
        assert t.height == 3
        assert list(t.nodes_at_level(t.height)) == [t.root]
        assert sum(len(t.nodes_at_level(lv)) for lv in range(t.height + 1)) == 2 * t.m - 1

    def test_levels_definition(self):
        """Definition 2(i): level = shortest path to a leaf; leaves are 0."""
        t = contiguous(8)
        assert t.level(t.root) == 3
        for node in range(1, 16):
            assert (t.level(node) == 0) == (node >= t.m)

    def test_segments_dyadic(self):
        t = contiguous(8)
        assert t.seg(1) == (0, 7)
        assert t.seg(2) == (0, 3)
        assert t.seg(3) == (4, 7)
        assert t.seg(8) == (0, 0)

    def test_internal_segment_is_union_of_children(self):
        t = contiguous(16)
        for node in range(1, 16):
            llo, lhi = t.seg(2 * node)
            rlo, rhi = t.seg(2 * node + 1)
            assert t.seg(node) == (llo, rhi)
            assert lhi < rlo  # disjoint, ordered

    def test_nodes_at_level(self):
        t = contiguous(8)
        assert list(t.nodes_at_level(3)) == [1]
        assert list(t.nodes_at_level(0)) == list(range(8, 16))
        with pytest.raises(GeometryError):
            t.nodes_at_level(4)

    def test_slice_of(self):
        t = contiguous(8)
        assert t.slice_of(1) == (0, 8)
        assert t.slice_of(2) == (0, 4)
        assert t.slice_of(15) == (7, 8)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(PowerOfTwoError):
            SegTree(np.arange(6))

    def test_unsorted_rejected(self):
        with pytest.raises(GeometryError):
            SegTree(np.array([3, 1, 2, 4]))

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(GeometryError):
            SegTree(np.array([1, 1, 2, 3]))

    def test_single_leaf_tree(self):
        t = SegTree(np.array([5]))
        assert t.m == 1 and t.height == 0
        assert t.seg(1) == (5, 5)
        assert t.decompose(5, 5) == [1]
        assert t.decompose(0, 4) == []


class TestDecompose:
    def test_canonical_nodes_exact_cover(self):
        t = contiguous(8)
        nodes = t.decompose(1, 6)
        covered = []
        for v in nodes:
            lo, hi = t.seg(v)
            covered.extend(range(lo, hi + 1))
        assert covered == list(range(1, 7))

    def test_maximality(self):
        """No canonical node's parent is also contained in the query."""
        t = contiguous(16)
        a, b = 3, 12
        for v in t.decompose(a, b):
            if v != t.root:
                plo, phi = t.seg(v >> 1)
                assert not (a <= plo and phi <= b)

    def test_full_interval_is_root(self):
        t = contiguous(8)
        assert t.decompose(0, 7) == [1]

    def test_empty_interval(self):
        t = contiguous(8)
        assert t.decompose(5, 3) == []

    def test_out_of_range_clips(self):
        t = contiguous(8)
        assert t.decompose(-5, 100) == [1]

    def test_left_to_right_order(self):
        t = contiguous(16)
        nodes = t.decompose(1, 14)
        los = [t.seg(v)[0] for v in nodes]
        assert los == sorted(los)

    def test_logarithmic_node_count(self):
        """Canonical decomposition has at most 2·log2(m) nodes."""
        for h in range(1, 9):
            t = contiguous(1 << h)
            for a in range(0, t.m, max(1, t.m // 8)):
                for b in range(a, t.m, max(1, t.m // 8)):
                    assert len(t.decompose(a, b)) <= 2 * h

    def test_visit_count_logarithmic(self):
        t = contiguous(256)
        nodes, visits = t.decompose_counted(7, 201)
        assert nodes == t.decompose(7, 201)
        # two boundary paths of length <= height, plus selected nodes
        assert len(nodes) < visits <= 6 * t.height

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=-2, max_value=70),
        st.integers(min_value=-2, max_value=70),
    )
    @settings(max_examples=150)
    def test_decompose_equals_bruteforce(self, h: int, a: int, b: int):
        t = contiguous(1 << h)
        nodes = t.decompose(a, b)
        covered = sorted(
            r for v in nodes for r in range(t.seg(v)[0], t.seg(v)[1] + 1)
        )
        expected = [r for r in range(t.m) if a <= r <= b]
        assert covered == expected

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=8, max_size=8, unique=True))
    @settings(max_examples=60)
    def test_non_contiguous_ranks(self, ranks: list[int]):
        """Decomposition is exact over arbitrary strictly-increasing ranks."""
        ranks = sorted(ranks)
        t = SegTree(np.array(ranks))
        a, b = ranks[2], ranks[5]
        nodes = t.decompose(a, b)
        covered = sorted(
            int(t.ranks[i]) for v in nodes for i in range(*t.slice_of(v))
        )
        assert covered == [r for r in ranks if a <= r <= b]
