"""Column-packed record traffic: batches, rows, sorts, and end-to-end parity.

Three contracts hold it together:

1. **Row view** — iterating a batch yields, per record, exactly the
   cells of its columns (ints as ints, matrix rows as tuples, semigroup
   values as themselves), for every stream schema Construct and Search
   ship, at d = 1..3, with padding sentinels, negative pids, and
   per-query semigroup values in the columns — and routing a batch
   preserves its rows per destination.
2. **Sort oracle** — the batch sample sort produces exactly Python's
   ``sorted`` over ``(key, source rank, source index)``, balanced
   ``ceil(N/p)`` rows per rank, in four labelled rounds.
3. **End-to-end parity** — a full build + mixed-mode batch answers
   exactly what the sequential range tree and brute force answer.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm import Machine
from repro.cgm.columns import RecordBatch
from repro.cgm.sort import sample_sort_cols
from repro.dist import DistributedRangeTree
from repro.dist.records import KIND_EXPAND, KIND_SUBQUERY
from repro.query import QueryBatch, aggregate, count, report
from repro.semigroup import KernelColumn, Semigroup, sum_of_dim
from repro.seq import SequentialRangeTree, bf_aggregate, bf_count, bf_report
from repro.workloads import make_points

from tests.helpers import random_boxes

# ---------------------------------------------------------------------------
# record strategies: rows as plain tuples in column order, with realistic
# tree keys, sentinels and values
# ---------------------------------------------------------------------------
SRECORD = ("key", "ranks", "pid", "value")
ROUTING = ("kind", "qid", "los", "his", "element", "location")
SELECTION = ("qid", "element", "nleaves", "agg")
PAIR = ("qid", "pid")


#: the kernel of arbitrary semigroup values: an object column
CELLS = Semigroup("cells", lambda pid, coords: None, lambda a, b: a, None).kernel


def pack(schema: str, names, rows, widths=None) -> RecordBatch:
    """Rows → columns: ``widths`` names the matrix columns, ``value`` /
    ``agg`` are object value columns, everything else int64."""
    widths = widths or {}
    cols = {}
    for j, name in enumerate(names):
        cells = [row[j] for row in rows]
        if name in widths:
            cols[name] = np.asarray(cells, dtype=np.int64).reshape(len(rows), widths[name])
        elif name in ("value", "agg"):
            cols[name] = KernelColumn.from_values(CELLS, cells)
        else:
            cols[name] = np.asarray(cells, dtype=np.int64)
    return RecordBatch(schema, cols, len(rows))


def ranks_strategy(d):
    return st.lists(
        st.integers(0, 1 << 12), min_size=d, max_size=d
    ).map(tuple)


def value_strategy():
    # semigroup values: counts, sums, (coord, pid) top-k pairs, None
    return st.one_of(
        st.integers(-(1 << 30), 1 << 30),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.tuples(st.floats(0, 1, allow_nan=False), st.integers(0, 1 << 20)),
        st.none(),
    )


def srecord_strategy(d, phase):
    # a phase-j sort key is tree·n + rank_j, the tree ranking the phase's
    # trees (one in phase 0); pids include the negative power-of-two
    # padding sentinels
    return st.tuples(
        st.integers(0, (1 << (6 * phase + 20)) - 1),
        ranks_strategy(d),
        st.integers(-(1 << 16), 1 << 16),
        value_strategy(),
    )


def subquery_strategy(d):
    return st.tuples(
        st.just(KIND_SUBQUERY),
        st.integers(0, 1 << 20),
        ranks_strategy(d),
        ranks_strategy(d),
        st.integers(0, 1 << 10),
        st.integers(0, 63),
    )


def expand_strategy(d):
    zeros = (0,) * d
    return st.tuples(
        st.just(KIND_EXPAND),
        st.integers(0, 1 << 20),
        st.just(zeros),
        st.just(zeros),
        st.integers(0, 1 << 10),
        st.integers(0, 63),
    )


def selection_strategy():
    return st.tuples(
        st.integers(0, 1 << 20),
        st.integers(0, 1 << 10),
        st.integers(0, 1 << 12),
        value_strategy(),
    )


class TestCodecRoundTrips:
    """``columns → rows`` is an identity on every shipped stream."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("phase", [0, 1, 2])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_srecord_identity(self, d, phase, data):
        records = data.draw(
            st.lists(srecord_strategy(d, phase), min_size=0, max_size=12)
        )
        batch = pack("dist.srecord", SRECORD, records, {"ranks": d})
        assert list(batch) == records
        assert [r.pid for r in batch] == [r[2] for r in records]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_subquery_identity(self, d, data):
        records = data.draw(
            st.lists(subquery_strategy(d), min_size=1, max_size=12)
        )
        batch = pack("dist.search.routing", ROUTING, records, {"los": d, "his": d})
        assert list(batch) == records

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_forest_selection_identity(self, data):
        records = data.draw(
            st.lists(selection_strategy(), min_size=0, max_size=12)
        )
        batch = pack("dist.forest_selection", SELECTION, records)
        assert list(batch) == records

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_expand_and_report_pair_identity(self, data):
        expands = data.draw(st.lists(expand_strategy(2), min_size=0, max_size=8))
        batch = pack("dist.search.routing", ROUTING, expands, {"los": 2, "his": 2})
        assert list(batch) == expands
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, 1 << 20), st.integers(-4, 1 << 16)),
                max_size=12,
            )
        )
        assert list(pack("dist.report_pair", PAIR, pairs)) == pairs

    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_mixed_routing_stream_survives_routing(self, d, data):
        """rows → exchange_batches → rows is an identity per destination."""
        records = data.draw(
            st.lists(
                st.one_of(subquery_strategy(d), expand_strategy(d)),
                min_size=1,
                max_size=16,
            )
        )
        p = 4
        dests = data.draw(
            st.lists(
                st.integers(0, p - 1),
                min_size=len(records),
                max_size=len(records),
            )
        )
        batch = pack("dist.search.routing", ROUTING, records, {"los": d, "his": d})
        mach = Machine(p)
        outboxes = [[None] * p for _ in range(p)]
        dest_arr = np.asarray(dests)
        for dst in range(p):
            idx = np.nonzero(dest_arr == dst)[0]
            if len(idx):
                outboxes[0][dst] = batch.take(idx)
        inboxes = mach.exchange_batches("t", outboxes, batch)
        for dst in range(p):
            expected = [r for r, dd in zip(records, dests) if dd == dst]
            assert list(inboxes[dst]) == expected


class TestColumnPrimitives:
    def test_batch_sequence_view(self):
        records = [(KIND_SUBQUERY, i, (i,), (i + 1,), 7, 0) for i in range(5)]
        batch = pack("dist.search.routing", ROUTING, records, {"los": 1, "his": 1})
        assert len(batch) == 5
        rows = list(batch)
        assert rows == records
        # a row is named by the columns, and cells are plain Python values
        assert rows[2]._fields == ROUTING
        assert (rows[2].qid, rows[2].his, rows[-1].element) == (2, (3,), 7)
        assert type(rows[2].qid) is int and type(rows[2].his[0]) is int
        with pytest.raises(AttributeError):
            rows[2].qid = 9
        # helper columns are not identifiers: they are numbered, not dropped
        tagged = batch.with_col("__rank", np.arange(5))
        assert [row[-1] for row in tagged] == [0, 1, 2, 3, 4]


class TestColumnarSortEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        values=st.lists(st.integers(0, 200), max_size=60),
        p=st.sampled_from([1, 2, 4]),
    )
    def test_matches_sorted_oracle(self, values, p):
        records = [(KIND_SUBQUERY, v, (i,), (i,), 7, 0) for i, v in enumerate(values)]
        chunk = -(-max(1, len(records)) // p)
        locals_ = [records[r * chunk : (r + 1) * chunk] for r in range(p)]
        oracle = [
            rec
            for _key, _r, _i, rec in sorted(
                (rec[1], r, i, rec)
                for r, box in enumerate(locals_)
                for i, rec in enumerate(box)
            )
        ]

        mach = Machine(p)
        batches = [
            pack("dist.search.routing", ROUTING, box, {"los": 1, "his": 1})
            for box in locals_
        ]
        cols = sample_sort_cols(mach, batches, "qid")

        assert [list(b) for b in cols] == [
            oracle[r * chunk : (r + 1) * chunk] for r in range(p)
        ]
        assert [s.label for s in mach.metrics.comm_steps()] == [
            "sort:samples", "sort:route", "sort:balance-count", "sort:balance"
        ]


class TestPlaneParity:
    """A mixed batch answers what the sequential tree and brute force do."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_mixed_batch_to_dict_identical(self, d):
        pts = make_points("uniform", 48, d, seed=300 + d)
        boxes = random_boxes(np.random.default_rng(400 + d), 9, d)
        sg = sum_of_dim(0)
        cycle = [count, report, lambda b: aggregate(b, sg)]
        batch = QueryBatch([cycle[i % 3](b) for i, b in enumerate(boxes)])
        seq = SequentialRangeTree(pts)
        fingerprints = []
        for _ in range(2):
            with DistributedRangeTree.build(pts, p=4) as tree:
                rs = tree.run(batch)
                payload = rs.to_dict()
                payload.pop("wall_seconds")
                fingerprints.append(json.dumps(payload, sort_keys=True))
        assert fingerprints[0] == fingerprints[1]  # comm_bytes included
        for q, got in zip(batch, rs.values()):
            if q.mode == "count":
                assert got == seq.count(q.box) == bf_count(pts, q.box)
            elif q.mode == "report":
                assert got == seq.report(q.box) == bf_report(pts, q.box)
            else:
                assert got == pytest.approx(bf_aggregate(pts, q.box, sg))

    def test_search_rounds_report_bytes(self):
        pts = make_points("uniform", 64, 2, seed=7)
        boxes = random_boxes(np.random.default_rng(8), 12, 2)
        with DistributedRangeTree.build(pts, p=4) as tree:
            rs = tree.run(QueryBatch([count(b) for b in boxes]))
        rows = [
            (s.volume_bytes, s.volume)
            for s in rs.metrics.comm_steps()
            if s.phase in ("search", "query")
        ]
        assert rows, "search pass recorded no communication rounds"
        for nbytes, records in rows:
            assert nbytes > 0 or records == 0
