"""Tests for the unified query layer (repro.query): planner, engine,
output-mode registry, lazy annotation refits, ResultSet."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cgm.loadbalance import replication_schedule
from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree
from repro.errors import DimensionMismatch, ReproError
from repro.geometry import Box, PointSet
from repro.query import (
    OutputMode,
    Query,
    QueryBatch,
    ResultSet,
    aggregate,
    count,
    get_mode,
    register_mode,
    registered_modes,
    report,
    sample_report,
    top_k,
)
from repro.query.result import QueryResult, _json_safe
from repro.semigroup import min_of_dim, sum_of_dim
from repro.seq import bf_aggregate, bf_count, bf_report
from repro.workloads import selectivity_queries, uniform_points

from tests.helpers import search_summary


def build(pts, p=4, **kw):
    return DistributedRangeTree.build(pts, p=p, **kw)


def mixed_batch(boxes):
    """Cycle count/report/aggregate descriptors over the boxes."""
    cycle = [count, report, aggregate]
    return QueryBatch([cycle[i % 3](b) for i, b in enumerate(boxes)])


def oracle(pts, query, base_sg=None):
    if query.mode == "count":
        return bf_count(pts, query.box)
    if query.mode == "report":
        return bf_report(pts, query.box)
    sg = query.semigroup or base_sg
    if sg is None:
        return bf_count(pts, query.box)
    return bf_aggregate(pts, query.box, sg)


class TestMixedBatchCorrectness:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p", [1, 2, 8])
    def test_mixed_matches_oracles(self, d, p):
        pts = uniform_points(48, d, seed=d * 7 + p)
        tree = build(pts, p=p)
        boxes = selectivity_queries(24, d, seed=50, selectivity=0.15)
        rs = tree.run(mixed_batch(boxes))
        for r in rs:
            assert r.value == oracle(pts, r.query)

    def test_mixed_with_foreign_semigroups(self):
        pts = uniform_points(64, 2, seed=60)
        tree = build(pts, p=4)
        boxes = selectivity_queries(9, 2, seed=61, selectivity=0.3)
        batch = QueryBatch(
            [
                count(boxes[0]),
                report(boxes[1]),
                aggregate(boxes[2], sum_of_dim(0)),
                aggregate(boxes[3], min_of_dim(1)),
                aggregate(boxes[4]),  # build-time semigroup (count)
                count(boxes[5]),
                report(boxes[6], limit=3),
                top_k(boxes[7], 4, dim=1),
                sample_report(boxes[8], 2, seed=3),
            ]
        )
        rs = tree.run(batch)
        assert rs.value(0) == bf_count(pts, boxes[0])
        assert rs.value(1) == bf_report(pts, boxes[1])
        assert rs.value(2) == pytest.approx(bf_aggregate(pts, boxes[2], sum_of_dim(0)))
        assert rs.value(3) == bf_aggregate(pts, boxes[3], min_of_dim(1))
        assert rs.value(4) == bf_count(pts, boxes[4])
        assert rs.value(5) == bf_count(pts, boxes[5])
        assert rs.value(6) == bf_report(pts, boxes[6])[:3]
        full = bf_report(pts, boxes[7])
        ys = sorted((float(pts.coords[i][1]), i) for i in full)[:4]
        assert rs.value(7) == [pid for _y, pid in ys]
        sampled = rs.value(8)
        assert len(sampled) <= 2
        assert set(sampled) <= set(bf_report(pts, boxes[8]))

    def test_empty_batch_and_empty_answers(self):
        pts = uniform_points(32, 2, seed=62)
        tree = build(pts, p=4)
        assert tree.run(QueryBatch([])).values() == []
        nothing = Box.full(2, 5.0, 6.0)
        rs = tree.run([count(nothing), report(nothing), aggregate(nothing)])
        assert rs.values() == [0, [], 0]

    def test_replication_strategies_agree(self):
        """Search's two step-3 strategies select and report the same rows
        in different rounds; the engine's pass is ``doubling``'s."""
        pts = uniform_points(48, 2, seed=63)
        tree = build(pts, p=8)
        boxes = selectivity_queries(12, 2, seed=64, selectivity=0.2)
        marked = [i % 3 == 1 for i in range(len(boxes))]
        direct, doubling = (
            search_summary(tree, boxes, s, report=marked) for s in ("direct", "doubling")
        )
        assert direct[1:] == doubling[1:]
        assert direct[1] == [bf_count(pts, b) for b in boxes]
        assert (direct[0].rounds, doubling[0].rounds) == (3, 2 + 3)
        values = tree.run(mixed_batch(boxes)).values()
        assert values[0::3] == direct[1][0::3]

    coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)

    @given(
        st.lists(st.tuples(coord, coord), min_size=1, max_size=24).map(PointSet),
        st.lists(st.tuples(coord, coord, coord, coord), min_size=1, max_size=9),
    )
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_property_mixed_vs_oracles(self, pts, raw_boxes):
        """Satellite: any mixed batch equals the brute-force oracles."""
        boxes = [
            Box([tuple(sorted((a, b))), tuple(sorted((c, d)))])
            for a, b, c, d in raw_boxes
        ]
        tree = build(pts, p=4)
        rs = tree.run(mixed_batch(boxes))
        for r in rs:
            assert r.value == oracle(pts, r.query)


class TestSinglePassRounds:
    def _rounds(self, pts, batch):
        tree = build(pts, p=8)
        rs = tree.run(batch)
        return rs, rs.rounds

    def test_one_search_pass_and_round_budget(self):
        """Acceptance: a mixed batch runs ONE search pass and needs no
        more rounds than any equivalent single-mode batch."""
        pts = uniform_points(128, 2, seed=70)
        boxes = selectivity_queries(48, 2, seed=71, selectivity=0.1)

        rs_mixed, mixed_rounds = self._rounds(pts, mixed_batch(boxes))
        assert rs_mixed.metrics.phase_sequence().count("search") == 1
        assert any(s.phase == "search" for s in rs_mixed.metrics.comm_steps())

        single_rounds = []
        for maker in (count, report, aggregate):
            _rs, rounds = self._rounds(pts, QueryBatch([maker(b) for b in boxes]))
            single_rounds.append(rounds)
        assert mixed_rounds <= max(single_rounds)

    def test_rounds_constant_in_n(self):
        rounds = []
        for n in (32, 64, 128):
            pts = uniform_points(n, 2, seed=72)
            tree = build(pts, p=4)
            boxes = selectivity_queries(n, 2, seed=73, selectivity=0.1)
            rounds.append(tree.run(mixed_batch(boxes)).rounds)
        assert len(set(rounds)) == 1, rounds


class TestLazyRefit:
    def test_foreign_semigroup_adds_no_sort_or_route_rounds(self):
        """Satellite: a per-query semigroup triggers a reannotate-style
        refit — exactly one broadcast round, never a sort/route round."""
        pts = uniform_points(64, 2, seed=80)
        boxes = selectivity_queries(8, 2, seed=81, selectivity=0.2)

        base = build(pts, p=4).run(QueryBatch([aggregate(b) for b in boxes]))
        tree = build(pts, p=4)
        rs = tree.run(QueryBatch([aggregate(b, sum_of_dim(0)) for b in boxes]))

        refit_steps = [s for s in rs.metrics.steps if s.phase == "query" and "refit" in s.label]
        refit_rounds = [s for s in refit_steps if s.kind == "comm"]
        assert len(refit_rounds) == 1  # the one broadcast
        assert not any("sort" in s.label or "route" in s.label for s in refit_steps)
        assert rs.rounds == base.rounds + 1

    def test_refit_is_cached_across_batches(self):
        pts = uniform_points(64, 2, seed=82)
        tree = build(pts, p=4)
        boxes = selectivity_queries(8, 2, seed=83, selectivity=0.2)
        first = tree.run(QueryBatch([aggregate(b, sum_of_dim(0)) for b in boxes]))
        second = tree.run(QueryBatch([aggregate(b, sum_of_dim(0)) for b in boxes]))
        assert second.rounds == first.rounds - 1
        assert not any("refit" in s.label for s in second.metrics.steps)
        assert second.values() == pytest.approx(
            [bf_aggregate(pts, b, sum_of_dim(0)) for b in boxes]
        )

    def test_refit_preserves_build_semigroup_answers(self):
        pts = uniform_points(48, 2, seed=84)
        tree = build(pts, p=4)
        boxes = selectivity_queries(6, 2, seed=85, selectivity=0.25)
        tree.run([aggregate(boxes[0], sum_of_dim(1))])  # widen annotation
        assert tree.base_semigroup.name == "count"
        rs = tree.run([aggregate(b) for b in boxes])
        assert rs.values() == [bf_count(pts, b) for b in boxes]

    def test_annotation_layers_are_capped(self):
        """A long-lived tree serving many distinct per-query semigroups
        must not grow its annotation (and refit cost) without bound.  A
        COUNT-built tree has no build-time layer to keep: past the cap it
        holds the current batch's layer and the newest others."""
        from repro.query.engine import MAX_ANNOTATION_LAYERS

        pts = uniform_points(32, 2, seed=87)
        tree = build(pts, p=4)
        b = Box.full(2, 0.0, 1.0)
        batches = MAX_ANNOTATION_LAYERS + 2  # each names a new semigroup
        for k in range(1, batches + 1):
            got = tree.run(top_k(b, k)).value(0)
            xs = sorted((float(pts.coords[i][0]), i) for i in range(32))[:k]
            assert got == [pid for _x, pid in xs]
            names = [c.name for c in tree.semigroup.components]
            assert len(names) <= MAX_ANNOTATION_LAYERS and f"top{k}[x0]" in names
        want = {f"top{k}[x0]" for k in range(batches - MAX_ANNOTATION_LAYERS + 1, batches + 1)}
        assert set(names) == want  # the oldest layers went, whatever came first
        # evicted layers still answer correctly (they just refit again)
        assert tree.run(top_k(b, 1)).value(0) == [xs[0][1]]
        assert tree.run([aggregate(q) for q in [b]]).value(0) == 32

    def test_build_time_value_layer_is_never_evicted(self):
        from repro.query.engine import MAX_ANNOTATION_LAYERS

        pts = uniform_points(32, 2, seed=87)
        tree = build(pts, p=4, semigroup=sum_of_dim(0))
        b = Box.full(2, 0.0, 1.0)
        for k in range(1, MAX_ANNOTATION_LAYERS + 3):
            tree.run(top_k(b, k))
            names = [c.name for c in tree.semigroup.components]
            assert names[0] == "sum[x0]" and f"top{k}[x0]" in names
            assert len(names) <= MAX_ANNOTATION_LAYERS
        assert tree.run([aggregate(b)]).value(0) == pytest.approx(pts.coords[:, 0].sum())

    def test_plan_exposes_refit_decision(self):
        pts = uniform_points(32, 2, seed=86)
        tree = build(pts, p=4)
        b = Box.full(2, 0.0, 1.0)
        plan = tree.engine.plan(QueryBatch([aggregate(b, sum_of_dim(0))]))
        assert plan.needs_refit
        plan2 = tree.engine.plan(QueryBatch([count(b), report(b)]))
        assert not plan2.needs_refit
        assert plan2.report.tolist() == [False, True]
        assert plan2.mode_counts() == {"count": 1, "report": 1}


class TestBuildCoercion:
    def test_build_from_list_of_tuples(self):
        tree = DistributedRangeTree.build(
            [(0.1, 0.2), (0.5, 0.7), (0.9, 0.4), (0.3, 0.3)], p=2
        )
        assert tree.run(count(((0.0, 1.0), (0.0, 1.0)))).value(0) == 4

    def test_build_from_numpy_array(self):
        import numpy as np

        arr = np.random.default_rng(0).uniform(size=(16, 3))
        tree = DistributedRangeTree.build(arr, p=4)
        pts = PointSet(arr)
        box = ((0.0, 0.8), (0.1, 1.0), (0.0, 1.0))
        assert tree.run(report(box)).value(0) == bf_report(pts, Box(box))

    def test_plain_box_tuples_in_descriptors(self):
        q = count([(0.0, 0.5), (0.25, 1.0)])
        assert isinstance(q.box, Box)
        assert q.box.dim == 2

    def test_dimension_mismatch_rejected(self):
        tree = DistributedRangeTree.build([(0.1, 0.2), (0.3, 0.4)], p=2)
        with pytest.raises(DimensionMismatch):
            tree.run(count(((0.0, 1.0),)))


class TestModeRegistry:
    def test_builtins_registered(self):
        assert {"count", "report", "aggregate", "topk", "sample"} <= set(
            registered_modes()
        )

    def test_unknown_mode_rejected(self):
        tree = DistributedRangeTree.build([(0.1, 0.2), (0.3, 0.4)], p=2)
        with pytest.raises(ReproError, match="unknown output mode"):
            tree.run(Query(box=((0.0, 1.0), (0.0, 1.0)), mode="explode"))

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ReproError, match="already registered"):
            register_mode(get_mode("count"))

    def test_custom_mode_plugs_in_without_touching_search(self):
        """A third-party fold mode: parity of the matching-point count."""

        class ParityMode(OutputMode):
            name = "parity-test-mode"

            def finalize(self, value, query):
                return value % 2

        register_mode(ParityMode())
        try:
            pts = uniform_points(32, 2, seed=90)
            tree = build(pts, p=4)
            boxes = selectivity_queries(6, 2, seed=91, selectivity=0.3)
            rs = tree.run(
                [Query(box=b, mode="parity-test-mode") for b in boxes]
            )
            assert rs.values() == [bf_count(pts, b) % 2 for b in boxes]
        finally:
            # registry cleanup so repeated in-process runs stay deterministic
            from repro.query.modes import _REGISTRY

            _REGISTRY.pop("parity-test-mode", None)

    def test_topk_validates_options(self):
        tree = DistributedRangeTree.build([(0.1, 0.2), (0.3, 0.4)], p=2)
        with pytest.raises(ReproError):
            tree.run(Query(box=((0.0, 1.0), (0.0, 1.0)), mode="topk"))

    def test_sample_is_deterministic(self):
        pts = uniform_points(64, 2, seed=92)
        tree = build(pts, p=4)
        b = Box.full(2, 0.0, 1.0)
        a = tree.run(sample_report(b, 5, seed=11)).value(0)
        c = tree.run(sample_report(b, 5, seed=11)).value(0)
        assert a == c and len(a) == 5


class TestResultSet:
    def test_order_and_accessors(self):
        pts = uniform_points(48, 2, seed=100)
        tree = build(pts, p=4)
        boxes = selectivity_queries(6, 2, seed=101, selectivity=0.2)
        rs = tree.run(mixed_batch(boxes))
        assert len(rs) == 6
        assert [r.qid for r in rs] == list(range(6))
        assert rs.modes() == {"count", "report", "aggregate"}
        assert [r.qid for r in rs.by_mode("report")] == [1, 4]
        assert rs.value(0) == rs[0].value == rs.values()[0]

    @pytest.mark.parametrize(
        "structure", [DistributedRangeTree, DynamicDistributedRangeTree], ids=["static", "dynamic"]
    )
    def test_records_are_built_only_on_access(self, structure, monkeypatch):
        """``values()`` builds no ``QueryResult``; indexing, slicing,
        iteration, ``by_mode``, ``modes()`` and ``to_dict()`` build what
        an eager list of records would hold."""
        pts = uniform_points(64, 2, seed=105)
        batch = mixed_batch(selectivity_queries(7, 2, seed=106, selectivity=0.3))
        with structure.build(pts, p=4) as tree:
            made = []
            real_init = QueryResult.__init__
            with monkeypatch.context() as patched:
                patched.setattr(
                    QueryResult, "__init__", lambda *a, **k: made.append(1) or real_init(*a, **k)
                )
                values = tree.run(batch).values()
            assert made == []
            rs = tree.run(batch)
        eager = [QueryResult(i, q.mode, q, v) for i, (q, v) in enumerate(zip(batch, values))]
        assert values == [oracle(pts, q) for q in batch]
        assert (rs[2], rs[-1], rs[1:3]) == (eager[2], eager[-1], tuple(eager[1:3]))
        assert list(rs) == eager and len(rs) == len(eager)
        with pytest.raises(IndexError):
            rs[len(eager)]
        for mode in ("count", "report", "aggregate", "topk"):
            assert rs.by_mode(mode) == [r for r in eager if r.mode == mode]
        assert rs.modes() == {"count", "report", "aggregate"}
        assert rs.to_dict()["queries"] == [
            {
                "qid": r.qid,
                "mode": r.mode,
                "box": [[float(lo), float(hi)] for lo, hi in zip(r.query.box.lo, r.query.box.hi)],
                "value": _json_safe(r.value),
            }
            for r in eager
        ]
        fresh = rs.values()
        fresh.append("not an answer")
        assert rs.values() == values and rs.values() is not rs.values()

    def test_to_dict_is_json_serialisable(self):
        pts = uniform_points(32, 2, seed=102)
        tree = build(pts, p=4)
        boxes = selectivity_queries(4, 2, seed=103, selectivity=0.3)
        rs = tree.run(mixed_batch(boxes))
        blob = json.dumps(rs.to_dict())
        back = json.loads(blob)
        assert len(back["queries"]) == 4
        assert back["metrics"]["rounds"] == rs.rounds
        assert "search" in back["phases"]
        assert back["queries"][0]["mode"] == "count"

    def test_metrics_cover_only_this_pass(self):
        pts = uniform_points(32, 2, seed=104)
        tree = build(pts, p=4)
        b = Box.full(2, 0.0, 1.0)
        first = tree.run(count(b))
        second = tree.run(count(b))
        assert first.rounds == second.rounds  # construction rounds excluded


class TestBatchDescriptors:
    def test_batch_rejects_bare_boxes(self):
        with pytest.raises(TypeError, match="Query descriptors"):
            QueryBatch([Box.full(2, 0.0, 1.0)])

    def test_batch_modes_and_len(self):
        b = Box.full(2, 0.0, 1.0)
        batch = QueryBatch([count(b), report(b)])
        assert len(batch) == 2
        assert batch.modes() == {"count", "report"}
        assert batch[1].mode == "report"

    def test_unknown_replication_is_rejected_before_any_superstep(self):
        """``tree.search``, the one entry that takes a strategy, fails
        naming the two — not in Search step 3, after the walk phase and
        the demand round have already been recorded on the machine; the
        query surface takes no strategy at all."""
        b = Box.full(2, 0.0, 1.0)
        pts = uniform_points(32, 2, seed=121)
        tree = build(pts, p=4)
        good = tree.search([b], replication="direct")
        with pytest.raises(ReproError, match=r"'bogus'.*doubling.*direct"):
            tree.search([b], replication="bogus")
        assert tree.metrics.steps == []
        with pytest.raises(TypeError):
            tree.run([count(b)], replication="direct")
        with pytest.raises(TypeError):
            QueryBatch([count(b)], replication="direct")
        assert "replication" not in tree.run([count(b)]).to_dict()
        assert tree.search([b], replication="direct").demands == good.demands
        # direct callers of the schedule keep its own check
        with pytest.raises(ValueError, match="bogus"):
            replication_schedule(4, [[0], [1], [2], [3]], "bogus")

    def test_report_limit_validation(self):
        tree = DistributedRangeTree.build([(0.1, 0.2), (0.3, 0.4)], p=2)
        with pytest.raises(ReproError, match="limit"):
            tree.run(report(((0.0, 1.0), (0.0, 1.0)), limit=-1))

    def test_min_aggregate_identity_on_empty(self):
        pts = uniform_points(32, 2, seed=120)
        tree = build(pts, p=4)
        rs = tree.run(aggregate(Box.full(2, 7.0, 8.0), min_of_dim(0)))
        assert rs.value(0) == math.inf
