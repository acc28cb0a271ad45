"""Cross-backend determinism: serial and process are bit-identical.

The SPMD contract (DESIGN decision 6, extended by the process backend):
for the same build and batch, every backend must produce the *same*
:meth:`ResultSet.to_dict` — answers, rounds, h-relations, charged ops —
bit for bit.  Only the top-level ``"wall_seconds"`` entry (wall-clock,
which no two runs share) is exempt; everything else identical means the
phases charged identically and the inbox merges ordered identically,
regardless of where the ranks actually executed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree
from repro.errors import ReproError
from repro.query import QueryBatch, aggregate, count, report
from repro.semigroup import sum_of_dim
from repro.seq import SequentialRangeTree, bf_aggregate
from repro.workloads import make_points, update_query_stream

from tests.helpers import (
    STREAM_GROUP,
    checkpoint_batch,
    random_boxes,
    search_summary,
    unkernelized,
)

BACKENDS = ("serial", "process")


def _mixed_batch(boxes) -> QueryBatch:
    cycle = [count, report, lambda b: aggregate(b, sum_of_dim(0))]
    return QueryBatch([cycle[i % 3](b) for i, b in enumerate(boxes)])


def _fingerprint(backend: str, d: int, dist_name: str, m: int = 9) -> tuple:
    pts = make_points(dist_name, 48, d, seed=1000 + d)
    boxes = random_boxes(np.random.default_rng(2000 + d), 9, d)[:m]
    with DistributedRangeTree.build(pts, p=4, backend=backend) as tree:
        rs = tree.run(_mixed_batch(boxes))
        payload = rs.to_dict()
        assert payload.pop("wall_seconds") >= 0
        trace = tuple(
            (s.kind, s.label, s.ops, s.sent, s.received)
            for s in tree.metrics.steps
        )
        sizes = tuple(tree.construct_result.forest_group_sizes())
    return json.dumps(payload, sort_keys=True), trace, sizes


class TestCrossBackendDeterminism:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("dist_name", ["uniform", "clustered"])
    def test_mixed_batches_bit_identical(self, d, dist_name):
        base = _fingerprint("serial", d, dist_name)
        for backend in BACKENDS[1:]:
            other = _fingerprint(backend, d, dist_name)
            assert other[0] == base[0], f"{backend} ResultSet.to_dict diverges"
            assert other[1] == base[1], f"{backend} superstep trace diverges"
            assert other[2] == base[2], f"{backend} forest layout diverges"

    @pytest.mark.parametrize("m", [0, 1])
    def test_idle_ranks_bit_identical(self, m):
        """One query leaves p-1 ranks idle in every phase, none leaves
        them all idle: zero-row payloads must cross the process boundary
        (and come back) exactly as they pass by reference in-process."""
        base = _fingerprint("serial", 2, "uniform", m)
        assert len(json.loads(base[0])["queries"]) == m
        for backend in BACKENDS[1:]:
            assert _fingerprint(backend, 2, "uniform", m) == base, backend

    def test_replication_strategies_identical_across_backends(self):
        """A hot spot (every query on one box) forces real copy traffic."""
        from repro.geometry.box import Box

        pts = make_points("uniform", 64, 2, seed=42)
        hot = Box(((0.0, 0.25), (0.0, 1.0)))
        answers, traces = {}, {}
        for backend in BACKENDS:
            for strategy in ("doubling", "direct"):
                with DistributedRangeTree.build(pts, p=4, backend=backend) as tree:
                    m, counts, rows = search_summary(tree, [hot] * 20, strategy)
                answers[backend, strategy] = (tuple(counts), tuple(rows))
                traces[backend, strategy] = [
                    (s.kind, s.label, s.ops, s.sent, s.received) for s in m.steps
                ]
        assert len(set(answers.values())) == 1
        for strategy in ("doubling", "direct"):
            assert traces["serial", strategy] == traces["process", strategy]

    def test_run_to_run_determinism_on_process_backend(self):
        a = _fingerprint("process", 2, "uniform")
        b = _fingerprint("process", 2, "uniform")
        assert a == b

    @pytest.mark.parametrize("d", [1, 2])
    def test_compiled_walk_bit_identical_across_backends(self, d):
        """The fingerprints above all run the compiled hat and forest
        walks; pin their answers against the sequential range tree too,
        so a compiled-walk divergence can't hide behind a matching
        cross-backend comparison that is wrong on every backend."""
        pts = make_points("uniform", 48, d, seed=1000 + d)
        boxes = random_boxes(np.random.default_rng(2000 + d), 9, d)
        seq = SequentialRangeTree(pts)
        oracle = (
            seq.count,
            seq.report,
            # float sums agree up to fold association
            lambda b: pytest.approx(bf_aggregate(pts, b, sum_of_dim(0))),
        )
        want = [oracle[i % 3](b) for i, b in enumerate(boxes)]
        for backend in BACKENDS:
            payload, _trace, _sizes = _fingerprint(backend, d, "uniform")
            got = [q["value"] for q in json.loads(payload)["queries"]]
            assert got == want, f"{backend} diverges from the oracle"


def _dynamic_fingerprint(
    backend: str, d: int = 2, semigroup=STREAM_GROUP
) -> tuple:
    """Replay one fixed update/query stream; fingerprint every checkpoint.

    The dynamization contract extends decision 6: for the same stream the
    epoch sweep must charge, route, and answer identically on every
    backend — every checkpoint's ``to_dict`` (minus wall-clock), the full
    superstep trace across all bucket builds, and the final epoch layout.
    """
    ops = update_query_stream(45, d, seed=4000 + d)
    payloads = []
    with DynamicDistributedRangeTree(
        d, p=4, backend=backend, semigroup=semigroup, flush_threshold=8
    ) as dyn:
        checkpoints = 0
        for op in ops:
            if op.kind == "insert":
                dyn.insert(op.coords, pid=op.pid)
            elif op.kind == "delete":
                try:
                    dyn.delete(op.pid)
                except ReproError:
                    assert op.absent
            else:
                rs = dyn.run(checkpoint_batch(op.boxes, offset=checkpoints))
                payload = rs.to_dict()
                assert payload.pop("wall_seconds") >= 0
                payloads.append(payload)
                checkpoints += 1
        trace = tuple(
            (s.kind, s.label, s.ops, s.sent, s.received)
            for s in dyn.metrics.steps
        )
        layout = (tuple(dyn.bucket_sizes), dyn.buffered_count)
    return json.dumps(payloads, sort_keys=True), trace, layout


class TestDynamicEpochDeterminism:
    """Same stream -> bit-identical epochs across backends and value columns."""

    def test_dynamic_stream_bit_identical_across_backends(self):
        base = _dynamic_fingerprint("serial")
        for backend in BACKENDS[1:]:
            other = _dynamic_fingerprint(backend)
            assert other[0] == base[0], f"{backend} checkpoint dicts diverge"
            assert other[1] == base[1], f"{backend} superstep trace diverges"
            assert other[2] == base[2], f"{backend} epoch layout diverges"

    def test_dynamic_answers_identical_across_valueplanes(self):
        """Typed kernel columns and object columns (the same group behind
        fresh callables) agree on every checkpoint answer.

        Only the answers are compared — the two representations
        legitimately move different byte counts.
        """
        by_values = {}
        for name, group in (
            ("kernel", STREAM_GROUP),
            ("object", unkernelized(STREAM_GROUP)),
        ):
            payloads, _trace, layout = _dynamic_fingerprint(
                "serial", d=1, semigroup=group
            )
            answers = [
                [q["value"] for q in checkpoint["queries"]]
                for checkpoint in json.loads(payloads)
            ]
            by_values[name] = (answers, layout)
        assert by_values["kernel"] == by_values["object"]
