"""Property-based invariants of the communication kernel.

Whatever the algorithms above it do, the exchange layer must never create,
drop, duplicate or reorder records — these hypothesis tests pin that down
for arbitrary traffic patterns.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm import Machine, RecordBatch, sample_sort_cols
from repro.cgm.collectives import route_batches
from repro.cgm.sort import route_balanced_cols

P = 4

# a traffic pattern: list of (src, dst, payload) triples
traffic = st.lists(
    st.tuples(
        st.integers(0, P - 1),
        st.integers(0, P - 1),
        st.integers(-1000, 1000),
    ),
    max_size=60,
)


class TestExchangeInvariants:
    @given(traffic)
    @settings(max_examples=60, deadline=None)
    def test_multiset_preserved(self, msgs):
        mach = Machine(P)
        out = mach.empty_outboxes()
        for src, dst, payload in msgs:
            out[src][dst].append(payload)
        inboxes = mach.exchange("x", out)
        sent = Counter(payload for _s, _d, payload in msgs)
        received = Counter(x for box in inboxes for x in box)
        assert sent == received

    @given(traffic)
    @settings(max_examples=60, deadline=None)
    def test_delivery_to_correct_rank(self, msgs):
        mach = Machine(P)
        out = mach.empty_outboxes()
        for src, dst, payload in msgs:
            out[src][dst].append((dst, payload))
        inboxes = mach.exchange("x", out)
        for rank, box in enumerate(inboxes):
            assert all(dst == rank for dst, _payload in box)

    @given(traffic)
    @settings(max_examples=60, deadline=None)
    def test_source_order_preserved(self, msgs):
        mach = Machine(P)
        out = mach.empty_outboxes()
        seq = 0
        for src, dst, _payload in msgs:
            out[src][dst].append((src, seq))
            seq += 1
        inboxes = mach.exchange("x", out)
        for box in inboxes:
            # within one inbox, records from the same source keep send order
            per_src: dict[int, list[int]] = {}
            for src, s in box:
                per_src.setdefault(src, []).append(s)
            for seqs in per_src.values():
                assert seqs == sorted(seqs)

    @given(traffic)
    @settings(max_examples=40, deadline=None)
    def test_volume_accounting_consistent(self, msgs):
        mach = Machine(P)
        out = mach.empty_outboxes()
        for src, dst, payload in msgs:
            out[src][dst].append(payload)
        mach.exchange("x", out)
        step = mach.metrics.steps[-1]
        assert sum(step.sent) == sum(step.received) == len(msgs)


def _distribute(cols: dict[str, list]) -> list[RecordBatch]:
    """Chunk equal-length columns over ``P`` ranks, ``ceil(N/P)`` rows each."""
    n = len(next(iter(cols.values())))
    chunk = -(-max(1, n) // P)
    arrays = {k: np.asarray(v, dtype=np.int64) for k, v in cols.items()}
    return [
        RecordBatch("t.prop", {k: a[i * chunk:(i + 1) * chunk] for k, a in arrays.items()})
        for i in range(P)
    ]


class TestHigherPrimitiveInvariants:
    @given(st.lists(st.integers(-100, 100), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_route_then_collect_is_permutation(self, xs):
        mach = Machine(P)
        dist = _distribute({"x": xs})
        dests = [np.abs(b.col("x")) % P for b in dist]
        inboxes = route_batches(mach, dist, dests, template=dist[0])
        assert Counter(x for b in inboxes for x in b.col("x").tolist()) == Counter(xs)

    @given(st.lists(st.integers(-100, 100), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_route_balanced_is_order_preserving_permutation(self, xs):
        mach = Machine(P)
        dist = _distribute({"x": xs})
        out = route_balanced_cols(mach, dist, "rebalance", dist[0])
        assert [x for b in out for x in b.col("x").tolist()] == xs
        assert max(len(b) for b in out) <= -(-len(xs) // P)

    @given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 5)), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_sort_is_permutation_and_ordered(self, pairs):
        mach = Machine(P)
        dist = _distribute({"k": [k for k, _ in pairs], "v": [v for _, v in pairs]})
        out = sample_sort_cols(mach, dist, ("k",))
        flat = [(row.k, row.v) for b in out for row in b]
        assert Counter(flat) == Counter(pairs)
        assert [k for k, _ in flat] == sorted(k for k, _ in pairs)
