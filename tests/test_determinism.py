"""Determinism and backend-equivalence guarantees (DESIGN.md decision 6)."""

from __future__ import annotations

import numpy as np

from repro.dist import DistributedRangeTree
from repro.query import count, report
from repro.workloads import selectivity_queries, uniform_points

from tests.helpers import search_summary


def _run(backend: str):
    pts = uniform_points(64, 2, seed=100)
    tree = DistributedRangeTree.build(pts, p=4, backend=backend)
    qs = selectivity_queries(32, 2, seed=101, selectivity=0.1)
    counts = tree.run([count(q) for q in qs]).values()
    reports = tree.run([report(q) for q in qs]).values()
    trace = [
        (s.kind, s.label, s.ops, s.sent, s.received) for s in tree.metrics.steps
    ]
    sizes = tree.construct_result.forest_group_sizes()
    tree.machine.close()
    return counts, reports, trace, sizes


class TestBackendEquivalence:
    def test_serial_and_process_identical(self):
        a = _run("serial")
        b = _run("process")
        assert a[0] == b[0], "counts differ between backends"
        assert a[1] == b[1], "reports differ between backends"
        assert a[3] == b[3], "forest layout differs between backends"

    def test_metric_traces_identical(self):
        """Same superstep labels, ops, and h-relations on both backends."""
        a = _run("serial")
        b = _run("process")
        assert a[2] == b[2]


class TestRunToRunDeterminism:
    def test_same_build_twice(self):
        a = _run("serial")
        b = _run("serial")
        assert a == b

    def test_replication_strategy_changes_trace_not_answers(self):
        pts = uniform_points(64, 2, seed=100)
        qs = selectivity_queries(32, 2, seed=101, selectivity=0.1)
        with DistributedRangeTree.build(pts, p=4) as tree:
            a, b = (search_summary(tree, qs, s, report=True) for s in ("doubling", "direct"))
        assert a[1:] == b[1:]
        assert (a[0].rounds, b[0].rounds) == (4, 3)

    def test_query_order_independence(self):
        """Permuting the batch permutes the answers consistently."""
        pts = uniform_points(64, 2, seed=102)
        qs = selectivity_queries(20, 2, seed=103, selectivity=0.15)
        tree = DistributedRangeTree.build(pts, p=4)
        base = tree.run([count(q) for q in qs]).values()
        perm = list(np.random.default_rng(0).permutation(len(qs)))
        shuffled = tree.run([count(qs[i]) for i in perm]).values()
        assert shuffled == [base[i] for i in perm]
