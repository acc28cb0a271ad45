"""A superstep trace belongs to the operation that made it.

Every public operation (a build, a pass, a search, a refit, a dynamic
update) records into its own :meth:`Machine.scope`; the machine keeps no
step log for them, so a long-lived tree's trace is one operation long
however many operations came before it.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.cgm import Machine
from repro.cgm.columns import RecordBatch
from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree
from repro.geometry import Box
from repro.query import QueryBatch, count, report
from repro.serve import FlushPolicy, QueryService
from repro.workloads import make_points

BOX = Box(((0.2, 0.7), (0.1, 0.6)))
FULL = Box.full(2, 0.0, 1.0)


def _tuples(metrics) -> list:
    return [(s.kind, s.label, s.ops, s.sent, s.received, s.sent_bytes) for s in metrics.steps]


def _labels(metrics) -> list:
    return [s.label for s in metrics.steps]


def test_five_hundred_passes_leave_no_step_log():
    pts = make_points("uniform", 128, 2, seed=3)
    with DistributedRangeTree.build(pts, p=4) as tree:
        one = _tuples(tree.run([count(BOX), report(BOX)]).metrics)
        for _ in range(500):
            rs = tree.run([count(BOX), report(BOX)])
        assert tree.machine.metrics.steps == []
        assert tree.metrics is rs.metrics
        assert _tuples(tree.metrics) == one


def test_a_dynamic_tree_keeps_one_operation_of_trace():
    rng = np.random.default_rng(4)
    batch = [count(FULL), report(BOX)]
    with DynamicDistributedRangeTree(2, p=4, flush_threshold=8) as dyn:
        for i in range(300):
            dyn.insert(tuple(rng.random(2)), pid=i)
            if i % 5 == 4:
                dyn.delete(i - 3)
            if i % 3 == 2:
                dyn.run(batch)
        rs = dyn.run(batch)
        again = dyn.run(batch)
        assert dyn.machine.metrics.steps == []
        assert dyn.metrics is again.metrics
        assert rs.metrics.phase_sequence() == ["search", "query"]
        assert _tuples(dyn.metrics) == _tuples(rs.metrics)


def test_a_serve_daemon_keeps_one_pass_of_trace():
    pts = make_points("uniform", 128, 2, seed=5)
    with DistributedRangeTree.build(pts, p=2, backend="serial") as tree:
        one = _tuples(tree.run(QueryBatch([count(BOX)])).metrics)

        async def go():
            async with QueryService(tree, FlushPolicy(max_batch=1)) as svc:
                for _ in range(100):
                    await svc.query(count(BOX))

        asyncio.run(go())
        assert tree.machine.metrics.steps == []
        assert _tuples(tree.metrics) == one


def test_a_nested_scope_adds_its_steps_in_order_to_the_outer():
    with Machine(2) as mach:
        with mach.scope() as outer:
            mach.exchange("a", mach.empty_outboxes())
            with mach.scope() as inner:
                mach.exchange("b", mach.empty_outboxes())
                assert mach.metrics is inner
            assert _labels(inner) == ["b"]
            assert mach.metrics is outer
            mach.exchange("c", mach.empty_outboxes())
        assert _labels(outer) == ["a", "b", "c"]
        assert mach.last_metrics is outer
        assert mach.metrics.steps == []
        # a raw call after the operation reaches the machine's own log,
        # never the trace already handed out
        mach.exchange("raw", mach.empty_outboxes())
        assert _labels(mach.last_metrics) == ["a", "b", "c"]
        assert _labels(mach.metrics) == ["raw"]


def test_a_failing_operation_keeps_its_partial_trace():
    with Machine(2) as mach:
        own = mach.metrics
        with pytest.raises(RuntimeError):
            with mach.scope():
                mach.exchange("before", mach.empty_outboxes())
                raise RuntimeError("mid-operation")
        assert mach.metrics is own and own.steps == []
        assert _labels(mach.last_metrics) == ["before"]


def test_a_later_raw_call_never_changes_a_returned_trace():
    pts = make_points("uniform", 64, 2, seed=6)
    with DistributedRangeTree.build(pts, p=4) as tree:
        rs = tree.run([count(BOX)])
        kept = _tuples(rs.metrics)
        tree.machine.exchange("raw", tree.machine.empty_outboxes())
        assert tree.metrics is rs.metrics and _tuples(tree.metrics) == kept


def test_inside_a_scope_the_last_step_after_an_exchange_is_that_exchange():
    """The per-layer trace reads ``machine.metrics.steps[-1]`` right after
    each exchange call to annotate it with h, bytes and rounds."""
    with Machine(2) as mach, mach.scope():
        out = mach.empty_outboxes()
        out[0][1] = [1, 2, 3]
        mach.exchange("plain", out)
        assert (mach.metrics.steps[-1].label, mach.metrics.steps[-1].h) == ("plain", 3)

        heavy = mach.empty_outboxes()
        heavy[1][0] = [("blob", 10)]
        mach.exchange_weighted(
            "weighted", heavy, weight=lambda rec: rec[1], nbytes=lambda rec: 8
        )
        assert (mach.metrics.steps[-1].label, mach.metrics.steps[-1].h) == ("weighted", 10)

        batch = RecordBatch("test.rows", {"x": np.arange(4)})
        mach.exchange_batches("batches", [[None, batch], [batch, None]])
        step = mach.metrics.steps[-1]
        assert (step.label, step.kind, step.h) == ("batches", "comm", 4)
        assert step.volume_bytes == 2 * batch.nbytes
