"""Tests for the CGM communication primitives Construct and Search use."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgm import Machine, RecordBatch, allgather, alltoall_broadcast
from repro.cgm.collectives import route_batches
from repro.cgm.sort import route_balanced_cols
from repro.errors import ProtocolError


@pytest.fixture
def mach() -> Machine:
    return Machine(4)


def _batches(data: list[list[int]]) -> list[RecordBatch]:
    return [RecordBatch("t.x", {"x": np.asarray(b, dtype=np.int64)}) for b in data]


def _values(batches: list[RecordBatch]) -> list[list[int]]:
    return [b.col("x").tolist() for b in batches]


class TestBroadcastGatherScatter:
    def test_allgather_identical_everywhere(self, mach):
        got = allgather(mach, [0, 1, 2, 3])
        assert got == [[0, 1, 2, 3]] * 4
        with pytest.raises(ProtocolError):
            allgather(mach, [0])

    def test_alltoall_broadcast_concatenates_by_rank(self, mach):
        got = alltoall_broadcast(mach, [["a"], [], ["c1", "c2"], ["d"]])
        assert got == [["a", "c1", "c2", "d"]] * 4

    def test_each_primitive_is_one_round(self, mach):
        alltoall_broadcast(mach, [["x"], [], [], []])
        assert mach.metrics.rounds == 1
        allgather(mach, [1, 2, 3, 4])
        assert mach.metrics.rounds == 2
        batches = _batches([[1], [2], [3], [4]])
        route_batches(mach, batches, [b.col("x") % 4 for b in batches])
        assert mach.metrics.rounds == 3


class TestRoute:
    def test_route_by_function(self, mach):
        batches = _batches([[1, 5], [2, 6], [3, 7], [4, 8]])
        inboxes = route_batches(mach, batches, [b.col("x") % 4 for b in batches])
        got = _values(inboxes)
        assert got[1] == [1, 5]
        assert got[0] == [4, 8]

    def test_route_out_of_range_rejected(self, mach):
        batches = _batches([[1], [], [], []])
        with pytest.raises(ProtocolError):
            route_batches(mach, batches, [np.array([99])] + [np.array([], dtype=np.int64)] * 3)

    def test_route_balanced_even_split(self, mach):
        batches = _batches([[*range(10)], [], [], []])
        out = _values(route_balanced_cols(mach, batches, "rebalance", batches[0]))
        sizes = [len(b) for b in out]
        assert sum(sizes) == 10
        assert max(sizes) <= 3  # ceil(10/4)
        flat = [x for b in out for x in b]
        assert flat == list(range(10))  # order preserved

    def test_route_balanced_empty(self, mach):
        batches = _batches([[], [], [], []])
        out = route_balanced_cols(mach, batches, "rebalance", batches[0])
        assert _values(out) == [[], [], [], []]
