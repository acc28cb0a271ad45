"""Tests for the CGM communication primitives Construct and Search use."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.cgm import Machine, RecordBatch, allgather, alltoall_broadcast
from repro.cgm.collectives import route_batches
from repro.cgm.sort import route_balanced_cols
from repro.errors import ProtocolError
from repro.semigroup import KernelColumn, id_set, sum_of_dim


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


def _per_destination_outboxes(p, batches, dests):
    """The split ``route_batches`` must equal: per source, one ``take``
    of the ascending row indices of each destination it names."""
    outboxes = [[None] * p for _ in range(p)]
    for r, (batch, dest) in enumerate(zip(batches, dests)):
        for dst in np.unique(dest):
            outboxes[r][int(dst)] = batch.take(np.nonzero(dest == dst)[0])
    return outboxes


def _mixed_batches(rng, sizes):
    """Batches with an int column, a float matrix, an object column and
    typed and object semigroup value columns."""
    typed, objects = sum_of_dim(0).kernel, id_set().kernel
    out = []
    for n in sizes:
        ids = rng.integers(0, 1000, n)
        obj = np.empty(n, dtype=object)
        obj[:] = [tuple(range(int(i) % 5)) for i in ids]
        out.append(
            RecordBatch(
                "t.mixed",
                {
                    "x": ids,
                    "m": rng.random((n, 3)),
                    "o": obj,
                    "agg": KernelColumn(typed, rng.random((n, 1))),
                    "ids": KernelColumn.from_values(objects, [frozenset({int(i)}) for i in ids]),
                },
                n,
            )
        )
    return out


def _same_column(a, b) -> bool:
    if isinstance(a, KernelColumn):
        return a.kernel == b.kernel and a.data.dtype == b.data.dtype and np.array_equal(a.data, b.data)
    return a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist()


class TestRouteSplit:
    """``route_batches`` splits each source with one stable sort and one
    ``take``; inboxes and bytes are those of one take per destination."""

    DESTS = {
        "random": lambda rng, n, p: rng.integers(0, p, n),
        "repeated": lambda rng, n, p: np.repeat(rng.integers(0, p, (n + 2) // 3), 3)[:n],
        "one-rank": lambda rng, n, p: np.full(n, p - 1),
        "some-ranks": lambda rng, n, p: rng.choice([0, p // 2], n),
    }

    @pytest.mark.parametrize("p", [1, 2, 8])
    @pytest.mark.parametrize("kind", sorted(DESTS))
    def test_inboxes_equal_one_take_per_destination(self, p, kind):
        rng = np.random.default_rng(p * 31 + len(kind))
        batches = _mixed_batches(rng, rng.integers(0, 40, p).tolist())
        dests = [self.DESTS[kind](rng, len(b), p) for b in batches]
        mach, ref = Machine(p), Machine(p)
        got = route_batches(mach, batches, dests, label="r", template=batches[0])
        want = ref.exchange_batches(
            "r", _per_destination_outboxes(p, batches, dests), batches[0]
        )
        for g, w in zip(got, want):
            assert len(g) == len(w) and list(g.cols) == list(w.cols)
            assert all(_same_column(g.cols[k], w.cols[k]) for k in w.cols)
        (step,) = mach.metrics.steps
        (ref_step,) = ref.metrics.steps
        assert (step.sent, step.received, step.sent_bytes) == (
            ref_step.sent,
            ref_step.received,
            ref_step.sent_bytes,
        )

    @pytest.mark.parametrize("p", [1, 2, 256, 512])
    def test_narrow_destinations_keep_row_order(self, p):
        """The split sorts destinations as uint8 up to p = 256 and as
        uint16 above it; either way each (source, destination) pair
        keeps its rows in order, and each inbox is ordered by source."""
        rng = np.random.default_rng(p)
        sizes = rng.integers(0, 12, p)
        batches = [
            RecordBatch("t.src", {"src": np.full(n, r), "row": np.arange(n)})
            for r, n in enumerate(sizes.tolist())
        ]
        # the top destination p - 1 is on every source, with repeats
        dests = [np.where(rng.random(n) < 0.3, p - 1, rng.integers(0, p, n)) for n in sizes]
        inboxes = route_batches(Machine(p), batches, dests, template=batches[0])
        for dst, inbox in enumerate(inboxes):
            want = [(r, i) for r in range(p) for i in np.flatnonzero(dests[r] == dst).tolist()]
            assert list(zip(inbox.col("src").tolist(), inbox.col("row").tolist())) == want

    @pytest.mark.parametrize("p", [1, 4, 8])
    def test_one_take_per_nonempty_source(self, p, monkeypatch):
        rng = np.random.default_rng(p)
        batches = _mixed_batches(rng, [0 if r % 3 == 1 else 17 for r in range(p)])
        dests = [rng.integers(0, p, len(b)) for b in batches]
        takes = Counter()
        real = RecordBatch.take

        def counted(self, idx):
            takes[next((r for r, b in enumerate(batches) if b is self), None)] += 1
            return real(self, idx)

        monkeypatch.setattr(RecordBatch, "take", counted)
        # a template of its own: shaping empty inboxes takes from it
        route_batches(Machine(p), batches, dests, template=batches[0].islice(0, 0))
        assert {r: takes[r] for r in range(p)} == {r: int(len(b) > 0) for r, b in enumerate(batches)}

    @pytest.mark.parametrize(
        "sizes,dests",
        [
            ([3, 0, 0, 0], [[0.9, 1.5, 3.99], [], [], []]),
            ([0, 0, 0, 0], [[], np.array([1, 2]), [], []]),
        ],
        ids=["float-destinations", "empty-source-two-destinations"],
    )
    def test_bad_destinations_raise_before_the_round(self, mach, sizes, dests):
        batches = _batches([list(range(n)) for n in sizes])
        dests = [np.asarray(d) if len(d) else np.array([], dtype=np.int64) for d in dests]
        before = len(mach.metrics.steps)
        with pytest.raises(ProtocolError):
            route_batches(mach, batches, dests, template=batches[0])
        assert len(mach.metrics.steps) == before
