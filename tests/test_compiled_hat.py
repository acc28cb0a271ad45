"""Batched hat walk ≡ reference hat walk, bit for bit.

The batched walk (:func:`repro.dist.hat.walk_hats`) must reproduce
:meth:`repro.dist.hat.Hat.walk` exactly — same selections in
the same order, same subqueries, same per-query visit counts — because
everything downstream (answers, rounds, charged ops) rests on step 1
emitting that stream.  These tests pin the walk-level identity
directly, Algorithm Search's whole output against the per-query
reference walks, the engine's answers against the sequential oracle,
and — on batches of wide boxes, the one traffic that reaches hat
selections — every fold family's answers across a refit.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.cgm.columns import RecordBatch
from repro.dist import DistributedRangeTree
from repro.dist.hat import walk_hats
from repro.geometry.box import RankBox, rank_bounds
from repro.geometry import Box
from repro.query import QueryBatch, aggregate, count, report, top_k
from repro.semigroup import max_of_dim, sum_of_dim
from repro.seq import SequentialRangeTree, bf_aggregate, bf_count, bf_report
from repro.semigroup.kernels import KernelColumn, ObjectKernel
from repro.seq.segment_tree import WalkStats
from repro.workloads import make_points, uniform_points

from tests.helpers import element_pids, forest_elements, random_boxes, reference_tree

BACKENDS = ("serial", "process")


def _rank_boxes(rng, nq: int, d: int, n: int) -> list:
    """Random rank boxes biased toward the edge cases of the four-case
    walk: empty (lo > hi), degenerate (lo == hi), and full-span."""
    out = []
    for _ in range(nq):
        los, his = [], []
        for _dim in range(d):
            kind = int(rng.integers(0, 10))
            if kind == 0:
                lo, hi = 3, 1  # empty
            elif kind == 1:
                lo = hi = int(rng.integers(0, n))  # degenerate
            elif kind == 2:
                lo, hi = 0, n - 1  # full span
            else:
                a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
                lo, hi = min(a, b), max(a, b)
            los.append(lo)
            his.append(hi)
        out.append(RankBox(tuple(los), tuple(his)))
    return out


def _mixed_batch(boxes) -> QueryBatch:
    cycle = [count, report, lambda b: aggregate(b, sum_of_dim(0))]
    return QueryBatch([cycle[i % 3](b) for i, b in enumerate(boxes)])


class TestWalkBatchBitIdentity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("report", [False, True, "some"])
    def test_matches_object_walk(self, d, report):
        # 48 points pad to n=64 with sentinel pids in the forest
        pts = uniform_points(48, d, seed=10 + d)
        with DistributedRangeTree.build(pts, p=4) as tree:
            hat = tree.hat
            rng = np.random.default_rng(20 + d)
            boxes = _rank_boxes(rng, 30, d, hat.n)
            qlo = 5
            # the slice's mask is indexed by position, not by query id
            mask = np.full(30, report is True)
            if report == "some":
                mask[::3] = True
            exp_sels, exp_subqs, exp_exps, charges = [], [], [], []
            for i, box in enumerate(boxes):
                got: list[int] = []
                s, q, e = hat.walk(
                    qlo + i, box, report=bool(mask[i]), charge=got.append
                )
                exp_sels.extend(s)
                exp_subqs.extend(q)
                exp_exps.extend(e)
                charges.append(sum(got))
            sel_b, subq_b, exp_b, visits = walk_hats([hat], qlo, [rank_bounds(boxes)], mask)
            # rows: same selections, subqueries and expansions, same order
            assert list(sel_b) == exp_sels
            assert list(subq_b) == exp_subqs
            assert list(exp_b) == exp_exps
            # charge accounting: per-query visit counts match exactly
            assert [int(v) for v in visits] == charges
            assert exp_subqs, "workload too small: no subqueries to compare"
            # only a reporting query's selections are tiled, each by the
            # hat leaves under it, left to right
            assert bool(exp_exps) == bool(mask[[s[0] - qlo for s in exp_sels]].any())
            tilings = [
                hat.shape.tile_leaf_ids[hat.shape.tile_off[n] :][: hat.shape.tile_len[n]].tolist()
                for q, n, _nl, _agg in exp_sels
                if mask[q - qlo]
            ]
            assert [e[4] for e in exp_exps] == [l for t in tilings for l in t]
            # every routing column is one int64 array: names are hat rows
            for batch in (subq_b, exp_b):
                assert all(
                    type(col) is np.ndarray and col.dtype == np.int64
                    for col in batch.cols.values()
                )

    def test_empty_slice(self):
        pts = uniform_points(32, 2, seed=9)
        with DistributedRangeTree.build(pts, p=4) as tree:
            sel_b, subq_b, exp_b, visits = walk_hats(
                [tree.hat], 0, [rank_bounds([])], np.zeros(0, dtype=bool)
            )
            assert len(sel_b) == 0 and len(subq_b) == 0 and len(exp_b) == 0
            assert len(visits) == 0


def reference_search(tree, boxes, report):
    """Algorithm Search from the per-record reference walks alone.

    ``Hat.walk`` per query over each rank's block, then the object
    tree's ``canonical`` (:func:`tests.helpers.reference_tree`) per
    surviving subquery at its owner, then one expansion per request the
    walk emitted for a reporting query's hat selections — the record-at-a-time
    definition the batched phases must reproduce.  ``report`` is the
    pass's mask (or one bool); the ``(qid, pid)`` pairs are the real
    points under each reporting query's forest selections, in selection
    order, then those of the expanded elements.
    Forest selections and pairs are returned as sorted lists: which
    *copy* of an element serves a subquery is a load-balancing decision,
    not part of the answer.
    """
    p = tree.p
    rank_boxes = [tree.ranked.to_rank_box(b) for b in boxes]
    report = np.broadcast_to(np.asarray(report, dtype=bool), (len(boxes),))
    chunk = -(-len(rank_boxes) // p)
    hat_sels, walk_ops, subqs, exps = [], [], [], []
    for r in range(p):
        sels, ops = [], []
        for qid in range(r * chunk, min(len(rank_boxes), (r + 1) * chunk)):
            s, q, e = tree.hat.walk(
                qid, rank_boxes[qid], report=bool(report[qid]),
                charge=ops.append,
            )
            sels.extend(s)
            subqs.extend(q)
            exps.extend(e)
        hat_sels.append(sels)
        walk_ops.append(sum(ops))
    forest_sels, pairs, forest_ops = [], [], 0
    oracles: dict = {}
    pids = {leaf: element_pids(stack, t) for leaf, stack, t in forest_elements(tree)}
    for _kind, qid, los, his, element, _location in subqs:
        if element not in oracles:
            oracles[element] = reference_tree(tree, element)
        stats = WalkStats()
        for sel in oracles[element].canonical(RankBox(los, his), stats=stats):
            forest_sels.append((qid, element, sel.leaf_count, sel.agg()))
            if report[qid]:
                pairs += [(qid, pid) for pid in pids[element][sel.rows()].tolist()]
        forest_ops += max(1, stats.nodes_visited)
    # only a reporting query's selections are expanded
    assert {e[1] for e in exps} <= set(np.flatnonzero(report).tolist())
    for _kind, qid, _los, _his, element, _location in exps:
        pairs += [(qid, pid) for pid in pids[element].tolist()]
        forest_ops += len(pids[element])
    demands = [sum(1 for sq in subqs if sq[5] == j) for j in range(p)]
    return (
        hat_sels,
        exps,
        sorted(forest_sels, key=repr),
        sorted(pair for pair in pairs if pair[1] >= 0),
        demands,
        walk_ops,
        forest_ops,
    )


def search_pairs(out) -> list:
    """Every rank's ``dist.report_pair`` rows as one sorted list."""
    return sorted(pair for per in out.report_pairs for pair in per)


class TestSearchOutputParity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_planes_agree_on_search_output(self, d):
        pts = make_points("uniform", 48, d, seed=500 + d)
        # wide and full-range boxes: hat selections, hence expansion requests
        boxes = random_boxes(np.random.default_rng(600 + d), 10, d)
        boxes += _wide_boxes(np.random.default_rng(650 + d), 2, d)
        boxes.append(Box.full(d, -1.0, 2.0))
        report = np.arange(len(boxes)) % 3 != 1
        with DistributedRangeTree.build(pts, p=4) as tree:
            out = tree.search(boxes, report=report)
            ops = {
                s.label: s.ops
                for s in tree.metrics.steps
                if s.label in ("search:walk", "search:forest")
            }
            hat_sels, exps, forest_sels, pairs, demands, walk_ops, forest_ops = (
                reference_search(tree, boxes, report)
            )
        assert exps
        assert [list(per) for per in out.hat_selections] == hat_sels
        assert (
            sorted((tuple(f) for per in out.forest_selections for f in per), key=repr)
            == forest_sels
        )
        assert search_pairs(out) == pairs
        assert out.demands == demands
        assert out.total_subqueries == sum(demands)
        assert sum(out.subqueries_per_proc) == sum(demands)
        assert list(ops["search:walk"]) == walk_ops
        assert sum(ops["search:forest"]) == forest_ops

    def test_compiled_is_columnar_default(self):
        pts = uniform_points(32, 2, seed=11)
        with DistributedRangeTree.build(pts, p=4) as tree:
            out = tree.search(
                random_boxes(np.random.default_rng(12), 4, 2)
            )
            assert all(
                isinstance(per, RecordBatch) for per in out.hat_selections
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_engine_parity_across_planes_per_backend(self, backend):
        """On every backend the engine answers what the sequential range
        tree answers (float sums up to fold association)."""
        pts = make_points("clustered", 48, 2, seed=77)
        boxes = random_boxes(np.random.default_rng(78), 9, 2)
        batch = _mixed_batch(boxes)
        seq = SequentialRangeTree(pts)
        with DistributedRangeTree.build(pts, p=4, backend=backend) as tree:
            got = tree.run(batch).values()
        for q, v in zip(batch, got):
            if q.mode == "count":
                assert v == seq.count(q.box)
            elif q.mode == "report":
                assert v == seq.report(q.box)
            else:
                assert v == pytest.approx(bf_aggregate(pts, q.box, q.semigroup))


def _wide_boxes(rng, m: int, d: int) -> list:
    """Boxes from below every point to past two thirds of the unit cube:
    each contains the lower half of every hat tree it enters, so the walk
    resolves part of the answer inside the hat."""
    out = []
    for _ in range(m):
        lo = rng.uniform(-0.1, -0.01, size=d)
        hi = rng.uniform(0.7, 1.05, size=d)
        out.append(Box(list(zip(lo.tolist(), hi.tolist()))))
    return out


def _assert_walks_identically(a, b, los, his) -> None:
    report = np.ones(len(los), dtype=bool)
    walks = (walk_hats([hat], 0, [(los, his)], report) for hat in (a, b))
    for got, want in zip(*walks):
        if isinstance(want, RecordBatch):
            assert list(got) == list(want)
        else:
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_hat_selections_answer_every_fold_family_across_refits(d, backend):
    """No benchmark workload emits a hat selection; these batches do, and
    every mode's answer must come out of them right — through a typed
    column, then an object one — with nothing to announce a refit to the
    walk."""
    pts = make_points("uniform", 96, d, seed=40 + d)
    boxes = _wide_boxes(np.random.default_rng(50 + d), 10, d)
    sg0, sg1, sg2 = sum_of_dim(0), max_of_dim(d - 1), sum_of_dim(d - 1)

    def answers_hold(tree, cycle) -> None:
        batch = QueryBatch([cycle[i % len(cycle)](b) for i, b in enumerate(boxes * 2)])
        got = tree.run(batch).values()  # refits first, when the batch needs one
        out = tree.search(boxes)
        assert sum(len(b) for b in out.hat_selections) > 0
        for q, v in zip(batch, got):
            if q.mode == "count":
                assert v == bf_count(pts, q.box)
            elif q.mode == "report":
                assert v == bf_report(pts, q.box)
            elif q.mode == "topk":
                inside = bf_report(pts, q.box)
                inside.sort(key=lambda i: (pts.coords[i][0], i))
                assert v == inside[:3]
            else:
                sg = q.semigroup or tree.base_semigroup
                assert v == pytest.approx(bf_aggregate(pts, q.box, sg))

    def refitted(hat):
        """Rank 0's replica after a refit: on serial the same live object,
        refreshed in place; from a worker, a fresh copy."""
        fresh = tree.hat
        assert fresh is hat or backend == "process"
        return fresh

    with DistributedRangeTree.build(pts, p=4, backend=backend, semigroup=sg0) as tree:
        hat = tree.hat
        # a lazy refit to sg0 x sg1: kernel folds read the hat's typed column
        answers_hold(
            tree,
            [count, report, lambda b: aggregate(b, sg0), lambda b: aggregate(b, sg1)],
        )
        hat = refitted(hat)
        assert hat.aggs.kernel == tree.semigroup.kernel
        assert not isinstance(hat.aggs.kernel, ObjectKernel)
        tree.reannotate(sg2)
        hat = refitted(hat)
        idle_agg = hat.idle[0].col("agg")
        assert isinstance(idle_agg, KernelColumn)
        assert idle_agg.kernel == hat.aggs.kernel == tree.semigroup.kernel
        assert idle_agg.kernel.name != "product"
        # a lazy refit to sg2 x top-3, which no typed kernel holds: object folds
        answers_hold(
            tree, [count, report, aggregate, lambda b: top_k(b, 3, dim=0)]
        )
        hat = refitted(hat)
        assert isinstance(hat.aggs.kernel, ObjectKernel)
        assert hat.idle[0].col("agg").kernel == hat.aggs.kernel

        bounds = tree.ranked.to_rank_bounds(*Box.stack(boxes))
        _assert_walks_identically(pickle.loads(pickle.dumps(hat)), hat, *bounds)
