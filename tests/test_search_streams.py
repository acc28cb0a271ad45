"""What Construct and Search ship, and what step 5 refuses.

A name in a Search stream is one int64: a hat row, the same on every
processor because the hat is replicated.  The property below taps every
``Machine.exchange_batches`` round of a build and of a mixed reporting
pass and holds the streams to that format; the test after it pins the
replication safety check (a rank never serves a subquery for a group it
holds no copy of).
"""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cgm import Machine
from repro.cgm.columns import RecordBatch
from repro.dist import DistributedRangeTree
from repro.dist.records import KIND_EXPAND, KIND_SUBQUERY
from repro.errors import ProtocolError
from repro.geometry import Box
from repro.query import QueryBatch, aggregate, count, report
from repro.semigroup import sum_of_dim, top_k_ids
from repro.semigroup.kernels import KernelColumn
from repro.workloads import make_points

from tests.helpers import random_boxes


def _cells(col) -> list:
    """A column's cells read one at a time — the slow spelling the row
    view's whole-column conversion is checked against."""
    if isinstance(col, KernelColumn):
        return [col[i] for i in range(len(col))]
    cell = (lambda x: x) if col.dtype == object else (lambda x: x.item())
    if col.ndim == 2:
        return [tuple(map(cell, row)) for row in col]
    return [cell(x) for x in col]


def _tile(shape, node: int) -> list:
    return shape.tile_leaf_ids[shape.tile_off[node] :][: shape.tile_len[node]].tolist()


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]),
    p=st.sampled_from([2, 4, 8]),
    backend=st.sampled_from(["serial", "process"]),
    kernelised=st.booleans(),
    seed=st.integers(0, 1 << 16),
    mask=st.lists(st.booleans(), min_size=9, max_size=9),
)
def test_every_shipped_column_is_an_array_and_every_name_a_hat_row(
    d, p, backend, kernelised, seed, mask
):
    shipped: list[RecordBatch] = []
    search_inboxes: list[RecordBatch] = []
    exchange = Machine.exchange_batches

    def tapped(self, label, outboxes, template=None):
        shipped.extend(b for box in outboxes for b in box if b is not None)
        inboxes = exchange(self, label, outboxes, template)
        shipped.extend(inboxes)
        if label == "search:route-subqueries" and not search_inboxes:
            search_inboxes.extend(inboxes)
        return inboxes

    sg = sum_of_dim(0) if kernelised else top_k_ids(3, 0)  # typed / object values
    pts = make_points("uniform", 64, d, seed=seed)  # no padding: the full box selects the root
    rng = np.random.default_rng(seed)
    # wide and full-range boxes resolve inside the hat: hat selections,
    # and expansion requests for the ones the mask marks
    wide = [
        Box(list(zip(rng.uniform(-0.1, -0.01, d).tolist(), rng.uniform(0.7, 1.05, d).tolist())))
        for _ in range(3)
    ]
    boxes = random_boxes(rng, 5, d) + wide + [Box.full(d, -1.0, 2.0)]
    mask = np.array(mask)
    mask[-1] = True
    cycle = [count, report, lambda b: aggregate(b, sg)]
    with mock.patch.object(Machine, "exchange_batches", tapped):
        with DistributedRangeTree.build(pts, p=p, backend=backend, semigroup=sg) as tree:
            assert {b.schema for b in shipped} == {"dist.srecord", "cgm.sort.sample", "dist.root"}
            # Construct's sort orders by the S-record's int64 key: no batch
            # it ships carries a byte-string key or a helper column
            for batch in shipped:
                assert not [c for c in batch.cols if c.startswith("__")], batch
                assert not [
                    c for c, v in batch.cols.items() if type(v) is np.ndarray and v.dtype.kind == "S"
                ], batch
            out = tree.search(boxes, report=mask)
            tree.run(QueryBatch([cycle[i % 3](b) for i, b in enumerate(boxes)]))
            shape = tree.hat.shape
            trees = {
                (r, j): st.shape[0] for r, store in enumerate(tree.forest_store) for j, st in store.items()
            }
    assert {b.schema for b in shipped} == {
        "dist.srecord", "cgm.sort.sample", "dist.root", "dist.search.routing", "query.piece",
        "dist.report_pair",
    }
    batches = shipped + out.hat_selections + out.forest_selections + out.report_pairs

    # (a) two column kinds, nothing else
    for batch in batches:
        for col in batch.cols.values():
            assert type(col) is np.ndarray or isinstance(col, KernelColumn)

    # (b) a name is a hat row: elements are hat leaves naming a tree of
    # their owner's stack, selected nodes are dimension-d nodes, and the
    # expansion requests are exactly the marked selections' tilings
    for batch in batches:
        if "element" in batch.cols:
            for e in np.unique(batch.col("element")).tolist():
                assert shape.leaf[e] and shape.tree[e] < trees[shape.location[e], shape.dim[e]]
        if "location" in batch.cols:
            assert (batch.col("location") == shape.location[batch.col("element")]).all()
        if batch.schema == "dist.root":
            assert shape.leaf[batch.col("row")].all()
    sels = [h for per in out.hat_selections for h in per]
    assert sels and all(shape.last_dim[h.node] for h in sels)
    routed = [row for inbox in search_inboxes for row in inbox]
    assert {row.kind for row in routed} == {KIND_SUBQUERY, KIND_EXPAND}
    assert sorted((r.qid, r.element) for r in routed if r.kind == KIND_EXPAND) == sorted(
        (h.qid, leaf) for h in sels if mask[h.qid] for leaf in _tile(shape, h.node)
    )

    # (c) the row view is the columns, zipped
    for batch in batches:
        rows = list(batch)
        assert len(rows) == len(batch)
        assert rows == list(zip(*map(_cells, batch.cols.values())))


# ---------------------------------------------------------------------------
# the replication safety checks
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["serial", "process"])
def test_step5_refuses_a_subquery_for_a_group_it_holds_no_copy_of(backend):
    pts = make_points("uniform", 64, 2, seed=3)
    with DistributedRangeTree.build(pts, p=4, backend=backend) as tree:
        ns, hat = tree.construct_result.ns, tree.hat
        # two subqueries for elements of owner 1, delivered to rank 0
        shape = hat.shape
        elements = np.flatnonzero(shape.leaf & (shape.location == 1))[:2]
        inbox = RecordBatch(
            "dist.search.routing",
            {
                "kind": np.full(2, KIND_SUBQUERY),
                "qid": np.arange(2),
                "los": np.zeros((2, 2), dtype=np.int64),
                "his": np.full((2, 2), 63),
                "element": elements,
                "location": shape.location[elements],
            },
        )
        nothing = RecordBatch.empty_like(inbox)
        nobody = np.zeros(2, dtype=bool)
        want = (
            f"rank 0 received subquery for {hat.path(elements[0])} "
            "without holding a copy of group 1"
        )
        with pytest.raises(ProtocolError, match=re.escape(want)):
            tree.machine.run_phase(
                "t", "dist.search.forest_cols",
                [(inbox if r == 0 else nothing, (ns,), nobody) for r in range(4)],
            )
        # the owner serves the same rows
        served = tree.machine.run_phase(
            "t", "dist.search.forest_cols",
            [(inbox if r == 1 else nothing, (ns,), nobody) for r in range(4)],
        )
        assert [len(sel) for sel, _pairs in served] == [0, 2, 0, 0]
