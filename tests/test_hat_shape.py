"""The hat's shape is ``(p, d)`` arithmetic, shared by every tree and part.

Every tree built on one machine holds the one :class:`HatShape` of its
``(p, d)`` — read-only, pickled by its key, so a worker process holds its
own memo of it — and adds only its segments, leaf counts and ``f(v)``.
Search step 1 walks every part of a pass in one :func:`walk_hats` call,
which must emit, column for column, what walking each part's hat alone
emits with the names shifted past the hats before it.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cgm import Machine
from repro.cgm.columns import RecordBatch
from repro.dist import DistributedRangeTree
from repro.dist.hat import hat_shape, walk_hats
from repro.geometry import Box, PointSet
from repro.semigroup import sum_of_dim
from repro.semigroup.kernels import KernelColumn

import tests.helpers  # noqa: F401  (registers the "test.hat_shape" phase)

#: coordinates on the 1/8 grid, so a degenerate side can sit on points
GRID = [i / 8 for i in range(9)]


def _assert_same_columns(got: RecordBatch, want: RecordBatch) -> None:
    assert (got.schema, len(got), list(got.cols)) == (want.schema, len(want), list(want.cols))
    for name, col in got.cols.items():
        other = want.cols[name]
        if isinstance(col, KernelColumn):
            assert isinstance(other, KernelColumn) and col.kernel == other.kernel
            col, other = col.data, other.data
        assert type(col) is type(other) and col.dtype == other.dtype, name
        assert np.array_equal(col, other), name


@st.composite
def passes(draw):
    """``(p, d, point sets of distinct padded n, boxes, report mask, qlo)``."""
    p = draw(st.sampled_from([2, 4, 8]))
    d = draw(st.integers(1, 3))
    exps = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # an odd count pads: distinct exponents give distinct padded n
    sets = [rng.integers(0, 9, size=((p << e) - e % 2, d)) / 8 for e in exps]
    boxes = []
    for _ in range(draw(st.integers(1, 10))):
        sides = []
        for _dim in range(d):
            kind = draw(st.sampled_from(["empty", "degenerate", "whole", "random"]))
            if kind == "empty":  # past every point: lo > hi in rank space
                sides.append((1.5, 2.0))
            elif kind == "degenerate":
                x = draw(st.sampled_from(GRID))
                sides.append((x, x))
            elif kind == "whole":
                sides.append((-1.0, 2.0))
            else:
                a, b = sorted(draw(st.sampled_from(GRID)) for _ in range(2))
                sides.append((a, b))
        boxes.append(Box(sides))
    report = np.array(draw(st.lists(st.booleans(), min_size=len(boxes), max_size=len(boxes))))
    return p, d, sets, boxes, report, draw(st.integers(0, 5))


@given(passes())
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_one_walk_is_the_parts_walked_alone_laid_end_to_end(case):
    p, d, sets, boxes, report, qlo = case
    with Machine(p) as mach:
        trees = [
            DistributedRangeTree.build(PointSet(xy), machine=mach, semigroup=sum_of_dim(0))
            for xy in sets
        ]
        hats = [tree.hat for tree in trees]
        # (a) one shape object per (p, d), whatever n; it pickles to itself
        shape = hats[0].shape
        assert len({tree.n for tree in trees}) == len(trees)
        assert all(hat.shape is shape for hat in hats) and shape is hat_shape(p, d)
        assert pickle.loads(pickle.dumps(shape)) is shape
        # (b) one walk = each part alone, names shifted by b·H, in part order
        bounds = [tree.ranked.to_rank_bounds(*Box.stack(boxes)) for tree in trees]
        together = walk_hats(hats, qlo, bounds, report)
        alone = [walk_hats([hat], qlo, [b], report) for hat, b in zip(hats, bounds)]
        for k, name in enumerate(("node", "element", "element")):
            shifted = [
                walk[k].with_col(name, walk[k].col(name) + b * shape.size)
                for b, walk in enumerate(alone)
            ]
            _assert_same_columns(together[k], RecordBatch.concat(shifted))
        np.testing.assert_array_equal(together[3], np.concatenate([walk[3] for walk in alone]))
        for tree in trees:
            tree.close()


def test_shape_arrays_are_read_only():
    """A write into the shared shape would move every tree on (p, d)."""
    with DistributedRangeTree.build(np.random.default_rng(1).random((64, 2)), p=4) as tree:
        shape = tree.hat.shape
        for name in ("dim", "left", "location", "tree", "paths", "tile_leaf_ids"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(shape, name)[0] = 5


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_every_rank_holds_its_process_memo(backend):
    """Two trees of different n on one machine: every rank's resident hat
    holds its own process's shape for (p, d), equal to the driver's."""
    rng = np.random.default_rng(2)
    with Machine(4, backend=backend) as mach:
        small, large = (
            DistributedRangeTree.build(rng.random((n, 2)), machine=mach) for n in (16, 128)
        )
        assert small.hat.shape is large.hat.shape is hat_shape(4, 2)
        want = small.hat.shape.paths.tobytes()
        for tree in (small, large):
            got = mach.run_phase("probe", "test.hat_shape", [tree.construct_result.ns] * 4)
            assert got == [(True, want)] * 4
