"""A stack's index type: int32 key blocks and ``row_block`` wherever they fit.

:meth:`~repro.seq.compiled.CompiledForest.from_ranks` stores every key
block and ``row_block`` of a stack in one index type, int32 when
``R(m, r) · trees · span`` (a bound on every key, row and walk probe)
fits it and int64 otherwise.  The width is storage only: a stack and its
order-isomorphic twin held at the other width answer bit for bit alike,
one walk may mix widths across its stacks, and no ``searchsorted`` on
the hot path gets probes of another type than its block (numpy would
upcast and copy the whole block on every call).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.seq.compiled as compiled
from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree
from repro.geometry import PointSet
from repro.query import aggregate, count, report
from repro.semigroup import KernelColumn, annotation_of, sum_of_dim
from repro.seq import bf_count
from repro.seq.compiled import CompiledForest
from repro.workloads import make_points, uniform_points

from tests.helpers import random_boxes

#: far past every rank of the small stacks: span = HUGE + 2 puts any
#: stack holding it past int32's bound
HUGE = 1 << 40


def _stack_ranks(rng, count, width, r, gaps):
    """``count`` trees of ``width`` rank rows over ``r`` dimensions, each
    dimension's ranks distinct per tree."""
    return np.stack(
        [
            np.stack([rng.permutation(width + gaps)[:width] for _ in range(r)], axis=1)
            for _ in range(count)
        ]
    ).astype(np.int64)


def _twins(seed, count=3, width=16, r=2):
    """A small-rank stack and its order-isomorphic twin, whose largest
    rank is :data:`HUGE`, both annotated with ``sum[x0]``; plus the
    monotone map from the first's ranks to the second's."""
    rng = np.random.default_rng(seed)
    small = _stack_ranks(rng, count, width, r, gaps=5)
    top = int(small.max())

    def widen(v):
        v = np.asarray(v, dtype=np.int64)
        return np.where(v >= top, v - top + HUGE, v)

    sg = annotation_of(sum_of_dim(0))
    values = KernelColumn(sg.kernel, sg.kernel.lift(rng.random((count * width, r))))
    twins = CompiledForest.from_ranks(small), CompiledForest.from_ranks(widen(small))
    for stack in twins:
        stack.annotate(values, sg)
    return (*twins, widen, top)


def _boxes(rng, nboxes, r, top, count):
    """Boxes over every tree, some inverted, empty or out of range."""
    los = rng.integers(-3, top + 4, size=(nboxes, r))
    his = los + rng.integers(-2, top + 4, size=(nboxes, r))
    return los, his, rng.integers(0, count, size=nboxes)


class TestWidthRule:
    def test_a_default_batch_d3_build_holds_int32_indices(self):
        """``batch_d3``'s shape (n = 4096, d = 3, p = 4): every key and
        row index fits int32, so every stack holds 4-byte indices."""
        pts = uniform_points(4096, 3, seed=1)
        with DistributedRangeTree.build(pts, p=4) as tree:
            stacks = [stack for store in tree.forest_store for stack in store.values()]
            assert len(stacks) == 12
            for stack in stacks:
                assert {block.dtype for block in stack.keys} == {np.dtype(np.int32)}
                assert stack.row_block.dtype == np.int32
                assert stack.pids.dtype == np.int64  # user ids stay as given

    def test_the_rule_is_the_bound(self):
        """int32 exactly while ``R(m, r) · trees · span`` fits it."""
        fits = np.iinfo(np.int32).max
        assert compiled._index_type(fits) == np.int32
        assert compiled._index_type(fits + 1) == np.int64

    @pytest.mark.parametrize("seed", range(4))
    def test_one_huge_rank_forces_int64_and_answers_as_its_twin(self, seed):
        narrow, wide, widen, top = _twins(seed)
        assert {block.dtype for block in narrow.keys} == {np.dtype(np.int32)}
        assert narrow.row_block.dtype == np.int32
        assert wide.span == HUGE + 2
        assert {block.dtype for block in wide.keys} == {np.dtype(np.int64)}
        assert wide.row_block.dtype == np.int64

        rng = np.random.default_rng(seed + 100)
        count = narrow.shape[0]
        los, his, trees = _boxes(rng, 40, 2, top, count)
        got = CompiledForest.walk([wide], widen(los), widen(his), trees)
        want = CompiledForest.walk([narrow], los, his, trees)
        for name, col, ref in zip(want._fields, got, want):
            assert col.dtype == ref.dtype, name
            np.testing.assert_array_equal(col, ref, err_msg=name)
        np.testing.assert_array_equal(wide.aggs.data, narrow.aggs.data)
        np.testing.assert_array_equal(
            wide.rows_flat(got.off, got.length), narrow.rows_flat(want.off, want.length)
        )
        assert wide.aggs.take(got.node).to_list() == narrow.aggs.take(want.node).to_list()
        assert wide.root_aggs().to_list() == narrow.root_aggs().to_list()

    @pytest.mark.parametrize("seed", range(4))
    def test_one_walk_over_both_widths_equals_the_walks_apart(self, seed):
        narrow, wide, widen, top = _twins(seed, count=2, width=8)
        rng = np.random.default_rng(seed + 200)
        stacks = [narrow, wide]
        parts = [_boxes(rng, 25, 2, top, 2), _boxes(rng, 30, 2, top, 2)]
        parts[1] = (widen(parts[1][0]), widen(parts[1][1]), parts[1][2])
        los, his, trees = (np.concatenate(col) for col in zip(*parts))
        which = np.repeat([0, 1], [25, 30])

        got = CompiledForest.walk(stacks, los, his, trees, which)
        apart = []
        for s, (lo, hi, t) in enumerate(parts):
            one = CompiledForest.walk([stacks[s]], lo, hi, t)
            apart.append(one._replace(q=one.q + 25 * s))
        for name, col, want in zip(got._fields, got, map(np.concatenate, zip(*apart))):
            assert col.dtype == want.dtype, name
            np.testing.assert_array_equal(col, want, err_msg=name)


class _SearchsortedSpy:
    """Stands in for :mod:`numpy` inside :mod:`repro.seq.compiled`,
    recording each ``searchsorted``'s block and probe types."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def searchsorted(self, a, v, *args, **kwargs):
        self.calls.append((np.asarray(a).dtype, np.asarray(v).dtype))
        return np.searchsorted(a, v, *args, **kwargs)

    def assert_no_upcast(self):
        assert self.calls, "no walk ran"
        assert all(block == probe for block, probe in self.calls), self.calls


@pytest.fixture
def spy(monkeypatch):
    spy = _SearchsortedSpy()
    monkeypatch.setattr(compiled, "np", spy)
    return spy


class TestNoUpcastOnTheHotPath:
    """Every walk ``searchsorted`` gets probes of its block's own type."""

    def test_batch_pass(self, spy):
        pts = make_points("uniform", 256, 2, seed=5)
        boxes = random_boxes(np.random.default_rng(5), 24, 2)
        with DistributedRangeTree.build(pts, p=4) as tree:
            queries = [count(b) for b in boxes] + [report(b) for b in boxes[:4]]
            out = tree.run(queries).values()
        assert out[:24] == [bf_count(pts, b) for b in boxes]
        spy.assert_no_upcast()

    def test_one_query_pass(self, spy):
        pts = make_points("uniform", 256, 3, seed=6)
        box = random_boxes(np.random.default_rng(6), 1, 3)[0]
        with DistributedRangeTree.build(pts, p=4, semigroup=sum_of_dim(0)) as tree:
            assert tree.run([count(box)]).values() == [bf_count(pts, box)]
            tree.run([aggregate(box)])
        spy.assert_no_upcast()

    def test_dynamic_batch(self, spy):
        pts = make_points("uniform", 100, 2, seed=7)
        boxes = random_boxes(np.random.default_rng(7), 12, 2)
        added = [(i / 32, 1 - i / 32) for i in range(21)]
        live = PointSet(np.vstack([pts.coords, added]))
        with DynamicDistributedRangeTree.build(pts, p=4, flush_threshold=8) as dt:
            for row in added:
                dt.insert(row)
            assert len(dt.bucket_sizes) > 1  # stacks of several widths in one walk
            out = dt.run([count(b) for b in boxes]).values()
        assert out == [bf_count(live, b) for b in boxes]
        spy.assert_no_upcast()
