"""Column-packed record traffic: codecs, batches, sorts, and end-to-end parity.

Three contracts hold it together:

1. **Codec round-trips** — ``pack → (route) → unpack`` is an identity on
   every registered record stream, at d = 1..3, with padding sentinels,
   negative pids, and per-query semigroup values in the columns.
2. **Sort/balance equivalence** — the batch sample sort and weighted
   balance produce exactly the outputs of the record-list reference
   primitives (same total order, same rounds, same h-relations).
3. **End-to-end parity** — a full build + mixed-mode batch answers
   exactly what the sequential range tree and brute force answer.
"""

from __future__ import annotations

import json
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm import Machine
from repro.cgm.columns import (
    Ragged,
    RecordBatch,
    codec_for,
    codec_for_type,
    encode_keys,
    registered_codecs,
)
from repro.cgm.sort import sample_sort, sample_sort_cols
from repro.dist import DistributedRangeTree
from repro.dist.records import (
    ExpandRequest,
    ForestSelection,
    HatSelectionRecord,
    SRecord,
    Subquery,
)
from repro.query import QueryBatch, aggregate, count, report
from repro.semigroup import sum_of_dim
from repro.seq import SequentialRangeTree, bf_aggregate, bf_count, bf_report
from repro.workloads import make_points

from tests.helpers import random_boxes

# ---------------------------------------------------------------------------
# record strategies: realistic Definition 2 paths, sentinels, values
# ---------------------------------------------------------------------------
def path_strategy(min_len=1, max_len=3):
    pair = st.tuples(st.integers(1, 1 << 12), st.integers(0, 12))
    return st.lists(pair, min_size=min_len, max_size=max_len).map(tuple)


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


def srecord_strategy(d, tid_len):
    # pids include the negative power-of-two padding sentinels
    return st.builds(
        SRecord,
        tree_id=path_strategy(tid_len, tid_len),
        ranks=ranks_strategy(d),
        pid=st.integers(-(1 << 16), 1 << 16),
        value=value_strategy(),
    )


def subquery_strategy(d):
    return st.builds(
        Subquery,
        qid=st.integers(0, 1 << 20),
        los=ranks_strategy(d),
        his=ranks_strategy(d),
        forest_id=path_strategy(1, 3),
        location=st.integers(0, 63),
    )


def expand_strategy():
    return st.builds(
        ExpandRequest,
        qid=st.integers(0, 1 << 20),
        forest_id=path_strategy(1, 3),
        location=st.integers(0, 63),
    )


def selection_strategy():
    return st.builds(
        ForestSelection,
        qid=st.integers(0, 1 << 20),
        forest_id=path_strategy(1, 3),
        nleaves=st.integers(0, 1 << 12),
        agg=value_strategy(),
    )


class TestCodecRoundTrips:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("tid_len", [0, 1, 2])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_srecord_identity(self, d, tid_len, data):
        records = data.draw(
            st.lists(srecord_strategy(d, tid_len), min_size=0, max_size=12)
        )
        batch = RecordBatch.from_records("dist.srecord", records)
        assert batch.to_records() == records

    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_subquery_identity(self, d, data):
        records = data.draw(
            st.lists(subquery_strategy(d), min_size=1, max_size=12)
        )
        batch = RecordBatch.from_records("dist.search.routing", records)
        assert batch.to_records() == records

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_forest_selection_identity(self, data):
        records = data.draw(
            st.lists(selection_strategy(), min_size=0, max_size=12)
        )
        batch = RecordBatch.from_records("dist.forest_selection", records)
        assert batch.to_records() == records

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_expand_and_report_pair_identity(self, data):
        expands = data.draw(st.lists(expand_strategy(), min_size=0, max_size=8))
        assert (
            RecordBatch.from_records("dist.search.routing", expands).to_records()
            == expands
        )
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, 1 << 20), st.integers(-4, 1 << 16)),
                max_size=12,
            )
        )
        assert (
            RecordBatch.from_records("dist.report_pair", pairs).to_records()
            == pairs
        )

    def test_hat_selection_cols_roundtrip(self):
        """The compiled-walk selection pack reconstructs forest ids
        arithmetically: leaves under (idx, lvl) are the heap range
        [idx·2^h, (idx+1)·2^h) at level lvl − h of the same tree."""
        sels = [
            HatSelectionRecord(
                qid=3,
                path=((2, 3), (7, 5)),
                nleaves=16,
                agg=(1.0, 2),
                # h = 1: leaves 4 and 5 at level 2, same tree id
                forest_ids=(((4, 2), (7, 5)), ((5, 2), (7, 5))),
                locations=(0, 1),
            ),
            HatSelectionRecord(qid=0, path=((1, 5), (1, 6)), nleaves=4),
            HatSelectionRecord(
                qid=1,
                path=((3, 2),),
                nleaves=1,
                agg=None,
                # h = 0: a hat leaf tiles itself
                forest_ids=(((3, 2),),),
                locations=(2,),
            ),
        ]
        assert (
            RecordBatch.from_records("dist.hat_selection_cols", sels).to_records()
            == sels
        )

    def test_every_registered_codec_exercised_includes_hat_cols(self):
        assert "dist.hat_selection_cols" in set(registered_codecs())

    @pytest.mark.parametrize("d", [1, 2, 3])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_mixed_routing_stream_survives_routing(self, d, data):
        """pack → exchange_batches → unpack is an identity per destination."""
        records = data.draw(
            st.lists(
                st.one_of(subquery_strategy(d), expand_strategy()),
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
        batch = RecordBatch.from_records("dist.search.routing", records)
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
            assert inboxes[dst].to_records() == expected

    def test_every_registered_codec_exercised(self):
        """The suite covers each registered stream (new codecs need tests)."""
        assert set(registered_codecs()) == {
            "dist.srecord",
            "dist.hat_selection_cols",
            "dist.forest_selection",
            "dist.search.routing",
            "dist.report_pair",
        }
        assert codec_for_type(SRecord) is codec_for("dist.srecord")


class TestColumnPrimitives:
    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.integers(-(1 << 40), 1 << 40), max_size=5), max_size=10
        ),
        data=st.data(),
    )
    def test_ragged_take_concat(self, rows, data):
        col = Ragged.from_rows(rows)
        assert [list(col.row(i)) for i in range(len(col))] == rows
        idx = data.draw(
            st.lists(st.integers(0, max(0, len(rows) - 1)), max_size=8)
        ) if rows else []
        taken = col.take(np.asarray(idx, dtype=np.int64))
        assert [list(taken.row(i)) for i in range(len(taken))] == [
            rows[i] for i in idx
        ]
        both = Ragged.concat([col, taken])
        assert [list(both.row(i)) for i in range(len(both))] == rows + [
            rows[i] for i in idx
        ]

    @settings(max_examples=30, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(
                st.integers(-(1 << 62), 1 << 62), st.integers(-(1 << 62), 1 << 62)
            ),
            max_size=40,
        )
    )
    def test_encode_keys_orders_like_tuples(self, keys):
        cols = [
            np.asarray([k[0] for k in keys], dtype=np.int64),
            np.asarray([k[1] for k in keys], dtype=np.int64),
        ]
        enc = encode_keys(cols, len(keys))
        by_bytes = sorted(range(len(keys)), key=lambda i: bytes(enc[i]))
        by_tuple = sorted(range(len(keys)), key=lambda i: (keys[i], i))
        # stable argsort comparison: numpy's own order must agree too
        np_order = list(np.argsort(enc, kind="stable"))
        assert by_bytes == by_tuple or [keys[i] for i in by_bytes] == [
            keys[i] for i in by_tuple
        ]
        assert [keys[i] for i in np_order] == [keys[i] for i in by_tuple]

    def test_batch_sequence_view(self):
        records = [
            Subquery(qid=i, los=(i,), his=(i + 1,), forest_id=((1, 0),), location=0)
            for i in range(5)
        ]
        batch = RecordBatch.from_records("dist.search.routing", records)
        assert len(batch) == 5
        assert batch[2] == records[2]
        assert batch[-1] == records[-1]
        assert list(batch) == records
        assert batch[1:3] == records[1:3]
        with pytest.raises(IndexError):
            batch[5]


class TestColumnarSortEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        values=st.lists(st.integers(0, 200), max_size=60),
        p=st.sampled_from([1, 2, 4]),
    )
    def test_matches_object_sample_sort(self, values, p):
        records = [
            Subquery(qid=v, los=(i,), his=(i,), forest_id=((1, 0),), location=0)
            for i, v in enumerate(values)
        ]
        chunk = -(-max(1, len(records)) // p)
        locals_ = [records[r * chunk : (r + 1) * chunk] for r in range(p)]

        m1 = Machine(p)
        obj = sample_sort(m1, locals_, key=operator.attrgetter("qid"))

        m2 = Machine(p)
        batches = [
            RecordBatch.from_records("dist.search.routing", box)
            for box in locals_
        ]
        cols = sample_sort_cols(m2, batches, keyspec=("qid",))

        assert [b.to_records() for b in cols] == obj
        t1 = [(s.kind, s.label, s.sent, s.received) for s in m1.metrics.steps]
        t2 = [(s.kind, s.label, s.sent, s.received) for s in m2.metrics.steps]
        assert [t[1] for t in t1] == [t[1] for t in t2]  # same round labels
        assert [t[2:] for t in t1 if t[0] == "comm"] == [
            t[2:] for t in t2 if t[0] == "comm"
        ]  # same h-relations


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
            row
            for row in rs.metrics.comm_bytes_by_round()
            if row["phase"] in ("search", "query")
        ]
        assert rows, "search pass recorded no communication rounds"
        for row in rows:
            assert row["bytes"] > 0 or row["records"] == 0
