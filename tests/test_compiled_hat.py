"""Compiled hat ≡ reference hat walk, bit for bit.

The compiled walk (:meth:`repro.dist.hat.CompiledHat.walk_batch`) must
reproduce :meth:`repro.dist.hat.Hat.walk` exactly — same selections in
the same order, same subqueries, same per-query visit counts — because
everything downstream (answers, rounds, charged ops) rests on step 1
emitting that stream.  These tests pin the walk-level identity
directly, Algorithm Search's whole output against the per-query
reference walks, the engine's answers against the sequential oracle,
and the cache discipline around refits.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cgm.columns import RecordBatch
from repro.dist import DistributedRangeTree
from repro.dist.records import ForestSelection
from repro.geometry.box import RankBox, rank_bounds
from repro.query import QueryBatch, aggregate, count, report
from repro.semigroup import sum_of_dim
from repro.seq import SequentialRangeTree, bf_aggregate
from repro.seq.segment_tree import WalkStats
from repro.workloads import make_points, uniform_points

from tests.helpers import random_boxes, reference_tree

BACKENDS = ("serial", "thread", "process")


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
    @pytest.mark.parametrize("collect", [False, True, "some"])
    def test_matches_object_walk(self, d, collect):
        # 48 points pad to n=64 with sentinel pids in the forest
        pts = uniform_points(48, d, seed=10 + d)
        with DistributedRangeTree.build(pts, p=4) as tree:
            hat = tree.hat
            rng = np.random.default_rng(20 + d)
            boxes = _rank_boxes(rng, 30, d, hat.n)
            qlo = 5
            cflag = (
                frozenset(qlo + i for i in range(0, 30, 3))
                if collect == "some"
                else collect
            )
            exp_sels, exp_subqs, charges = [], [], []
            for i, box in enumerate(boxes):
                qid = qlo + i
                got: list[int] = []
                want = cflag if isinstance(cflag, bool) else qid in cflag
                s, q = hat.walk(
                    qid, box, collect_leaves=want, charge=got.append
                )
                exp_sels.extend(s)
                exp_subqs.extend(q)
                charges.append(sum(got))
            sel_b, routing_b, visits = hat.compiled().walk_batch(
                qlo, *rank_bounds(boxes), cflag
            )
            # records: same selections and subqueries, same order
            assert list(sel_b) == exp_sels
            assert list(routing_b) == exp_subqs
            # charge accounting: per-query visit counts match exactly
            assert [int(v) for v in visits] == charges
            # routing bytes: column-for-column identical to the record pack
            assert exp_subqs, "workload too small: no subqueries to compare"
            ref = RecordBatch.from_records("dist.search.routing", exp_subqs)
            for name in ("kind", "qid", "los", "his", "location"):
                np.testing.assert_array_equal(
                    np.asarray(routing_b.col(name)), np.asarray(ref.col(name))
                )
            for attr in ("flat", "offsets"):
                np.testing.assert_array_equal(
                    getattr(routing_b.col("forest_id"), attr),
                    getattr(ref.col("forest_id"), attr),
                )

    def test_empty_slice(self):
        pts = uniform_points(32, 2, seed=9)
        with DistributedRangeTree.build(pts, p=4) as tree:
            sel_b, routing_b, visits = tree.hat.compiled().walk_batch(
                0, *rank_bounds([]), False
            )
            assert len(sel_b) == 0 and len(routing_b) == 0
            assert len(visits) == 0


def reference_search(tree, boxes, collect_leaves: bool):
    """Algorithm Search from the per-record reference walks alone.

    ``Hat.walk`` per query over each rank's block, then the object
    tree's ``canonical`` (:func:`tests.helpers.reference_tree`) per
    surviving subquery at its owner — the record-at-a-time definition
    the batched phases must reproduce.
    Forest selections are returned as one sorted list: which *copy* of
    an element serves a subquery is a load-balancing decision, not part
    of the answer.
    """
    p = tree.p
    rank_boxes = [tree.ranked.to_rank_box(b) for b in boxes]
    chunk = -(-len(rank_boxes) // p)
    hat_sels, walk_ops, subqs = [], [], []
    for r in range(p):
        sels, ops = [], []
        for qid in range(r * chunk, min(len(rank_boxes), (r + 1) * chunk)):
            s, q = tree.hat.walk(
                qid, rank_boxes[qid], collect_leaves=collect_leaves,
                charge=ops.append,
            )
            sels.extend(s)
            subqs.extend(q)
        hat_sels.append(sels)
        walk_ops.append(sum(ops))
    forest_sels, forest_ops = [], 0
    oracles: dict = {}
    for sq in subqs:
        el = tree.forest_store[sq.location][sq.forest_id]
        if sq.forest_id not in oracles:
            oracles[sq.forest_id] = reference_tree(el)
        stats = WalkStats()
        for sel in oracles[sq.forest_id].canonical(
            RankBox(sq.los, sq.his), stats=stats
        ):
            forest_sels.append(
                ForestSelection(
                    qid=sq.qid,
                    forest_id=sq.forest_id,
                    nleaves=sel.leaf_count,
                    agg=sel.agg(),
                    pid_tuple=tuple(el.pids[sel.rows()].tolist()),
                )
            )
        forest_ops += max(1, stats.nodes_visited)
    demands = [sum(1 for sq in subqs if sq.location == j) for j in range(p)]
    return hat_sels, sorted(forest_sels, key=repr), demands, walk_ops, forest_ops


class TestSearchOutputParity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_planes_agree_on_search_output(self, d):
        pts = make_points("uniform", 48, d, seed=500 + d)
        boxes = random_boxes(np.random.default_rng(600 + d), 10, d)
        with DistributedRangeTree.build(pts, p=4) as tree:
            tree.reset_metrics()
            out = tree.search(boxes, collect_leaves=True)
            ops = {
                s.label: s.ops
                for s in tree.metrics.steps
                if s.label in ("search:walk", "search:forest")
            }
            hat_sels, forest_sels, demands, walk_ops, forest_ops = (
                reference_search(tree, boxes, collect_leaves=True)
            )
        assert [list(per) for per in out.hat_selections] == hat_sels
        assert (
            sorted((f for per in out.forest_selections for f in per), key=repr)
            == forest_sels
        )
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


class TestCompileCache:
    def test_compile_is_cached(self):
        pts = uniform_points(32, 2, seed=3)
        with DistributedRangeTree.build(pts, p=4) as tree:
            c1 = tree.hat.compiled()
            assert tree.hat.compiled() is c1

    def test_refit_invalidates_compiled_cache(self):
        """A refit must never leave stale compiled aggregates behind."""
        pts = uniform_points(32, 2, seed=4)
        with DistributedRangeTree.build(pts, p=4) as tree:
            hat = tree.hat
            c1 = hat.compiled()
            boxes = random_boxes(np.random.default_rng(5), 6, 2)
            batch = QueryBatch(
                [aggregate(b, sum_of_dim(0)) for b in boxes]
            )
            rs = tree.run(batch)  # refits → invalidates → recompiles
            assert hat.compiled() is not c1
            # stale compiled aggregates would still be counts, not sums
            assert rs.values() == pytest.approx(
                [bf_aggregate(pts, b, sum_of_dim(0)) for b in boxes]
            )

    def test_refresh_aggregates_clears_cache_directly(self):
        pts = uniform_points(32, 2, seed=6)
        with DistributedRangeTree.build(pts, p=4) as tree:
            hat = tree.hat
            hat.compiled()
            hat.refresh_aggregates(
                list(tree.construct_result.roots), hat.semigroup
            )
            assert hat._compiled is None


class TestMemoizedTilings:
    def test_forest_leaves_under_is_memoized(self):
        pts = uniform_points(64, 2, seed=8)
        with DistributedRangeTree.build(pts, p=8) as tree:
            hat = tree.hat
            node = next(
                v
                for v in hat.iter_nodes()
                if v.dim == hat.d - 1 and not v.is_hat_leaf
            )
            first = hat.forest_leaves_under(node)
            assert hat.forest_leaves_under(node) is first
            # and the tiling is still correct: leaves left to right
            assert all(l.is_hat_leaf for l in first)
            assert [l.index for l in first] == sorted(l.index for l in first)

    def test_compiled_tilings_match_object_tilings(self):
        pts = uniform_points(64, 2, seed=13)
        with DistributedRangeTree.build(pts, p=8) as tree:
            hat = tree.hat
            comp = hat.compiled()
            for i in range(comp.size_nodes):
                if not comp.last_dim[i]:
                    continue
                node = hat.nodes_by_path[
                    tuple(
                        (int(a), int(b))
                        for a, b in zip(*[iter(comp.paths.row(i))] * 2)
                    )
                ]
                leaves = hat.forest_leaves_under(node)
                off, ln = int(comp.tile_off[i]), int(comp.tile_len[i])
                got = comp.tile_leaf_ids[off : off + ln]
                assert [
                    int(comp.location[j]) for j in got
                ] == [l.location for l in leaves]
