"""The process backend: rank-resident state, phase routing, error paths."""

from __future__ import annotations

import pytest

from repro.cgm import Machine, register_phase
from repro.cgm.phases import get_phase, registered_phases
from repro.errors import ProtocolError

from tests.helpers import search_summary


@register_phase("test.double")
def _phase_double(ctx, payload):
    ctx.charge(payload)
    return payload * 2


@register_phase("test.stash")
def _phase_stash(ctx, payload):
    ctx.state["stash"] = payload + ctx.rank
    return None


@register_phase("test.recall")
def _phase_recall(ctx, payload):
    return ctx.state.get("stash")


@register_phase("test.boom")
def _phase_boom(ctx, payload):
    raise ProtocolError(f"rank {ctx.rank} exploded")


class TestPhaseRegistry:
    def test_lookup(self):
        assert get_phase("test.double") is _phase_double
        assert "test.double" in registered_phases()

    def test_unknown_phase(self):
        with pytest.raises(KeyError, match="unknown compute phase"):
            get_phase("test.missing")

    def test_shadowing_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_phase("test.double")
            def other(ctx, payload):  # pragma: no cover
                return None

    def test_payload_arity_checked(self):
        with Machine(2) as mach:
            with pytest.raises(ProtocolError, match="one payload per rank"):
                mach.run_phase("x", "test.double", [1])


@pytest.fixture(scope="module")
def pmach():
    """One process machine shared by this module (workers are expensive)."""
    with Machine(4, backend="process") as mach:
        yield mach


class TestProcessExecution:
    def test_results_in_rank_order_and_ops_recorded(self, pmach):
        out = pmach.run_phase("d", "test.double", [10, 20, 30, 40])
        assert out == [20, 40, 60, 80]
        step = pmach.metrics.steps[-1]
        assert step.ops == (10, 20, 30, 40)
        assert all(s >= 0 for s in step.seconds)

    def test_state_is_rank_resident_and_persistent(self, pmach):
        pmach.run_phase("stash", "test.stash", [100] * 4)
        assert pmach.run_phase("recall", "test.recall") == [100, 101, 102, 103]

    def test_seed_and_fetch_state(self, pmach):
        """Phases write rank state; the driver fetches and evicts it."""
        pmach.run_phase("stash", "test.stash", [10] * 4)
        assert pmach.fetch_state("stash") == [10, 11, 12, 13]
        assert pmach.fetch_state("never-set") == [None] * 4
        pmach.evict_state("stash")
        assert pmach.fetch_state("stash") == [None] * 4

    def test_state_view_is_lazy(self, pmach):
        view = pmach.state_view("stash", default=dict)
        pmach.run_phase("stash", "test.stash", [20] * 4)
        # the fetch happens at first access, after the phase
        assert view[2] == 22
        assert len(view) == 4
        pmach.evict_state("stash")
        assert list(view) == [{}] * 4  # the default stands in for an evicted key

    def test_worker_exception_propagates_with_type(self, pmach):
        with pytest.raises(ProtocolError, match="exploded"):
            pmach.run_phase("boom", "test.boom")
        # the pipes stay usable after a failure
        assert pmach.run_phase("d", "test.double", [1, 1, 1, 1]) == [2, 2, 2, 2]

    def test_shared_backend_survives_machines_of_different_p(self):
        """A smaller machine must not restart workers or wipe their state."""
        from repro.cgm import ProcessBackend

        backend = ProcessBackend()
        try:
            big = Machine(4, backend=backend)
            big.run_phase("stash", "test.stash", [500] * 4)
            small = Machine(2, backend=backend)
            assert small.run_phase("d", "test.double", [1, 2]) == [2, 4]
            # the p=4 machine's resident state survived the p=2 traffic
            assert big.run_phase("recall", "test.recall") == [
                500,
                501,
                502,
                503,
            ]
        finally:
            backend.close()

    def test_unpicklable_payload_does_not_desync_pipes(self, pmach):
        """A payload that will not pickle raises before any host is sent
        its frame, so no host owes a reply and no rank's state moves."""
        pmach.run_phase("stash", "test.stash", [1] * 4)
        with pytest.raises(Exception):  # pickling error, backend-raised
            pmach.run_phase("bad", "test.double", [5, 6, 7, lambda: None])
        # replies must still line up command-for-command afterwards
        assert pmach.fetch_state("stash") == [1, 2, 3, 4]
        assert pmach.run_phase("d", "test.double", [1, 2, 3, 4]) == [2, 4, 6, 8]


class TestProcessPipeline:
    def test_sample_sort_on_process_backend(self, pmach):
        import numpy as np

        from repro.cgm.columns import RecordBatch
        from repro.cgm.sort import sample_sort_cols, sorted_and_balanced

        data = [[9, 1, 5], [8, 2], [7, 3, 0], [6]]
        batches = [RecordBatch("t.x", {"x": np.asarray(box, dtype=np.int64)}) for box in data]
        out = [b.col("x").tolist() for b in sample_sort_cols(pmach, batches, "x")]
        assert [x for box in out for x in box] == sorted(x for box in data for x in box)
        assert sorted_and_balanced(pmach, out, key=lambda x: x)

    def test_tree_lifecycle_on_process_backend(self):
        from repro.dist import DistributedRangeTree, validate_tree
        from repro.query import count, report
        from repro.seq import bf_count, bf_report
        from repro.workloads import selectivity_queries, uniform_points

        pts = uniform_points(64, 2, seed=21)
        boxes = selectivity_queries(12, 2, seed=22, selectivity=0.15)
        with DistributedRangeTree.build(pts, p=4, backend="process") as tree:
            rs = tree.run([count(b) for b in boxes])
            assert rs.values() == [bf_count(pts, b) for b in boxes]
            # driver-side introspection fetches the resident state lazily
            with DistributedRangeTree.build(pts, p=4) as serial_tree:
                assert (
                    tree.construct_result.forest_group_sizes()
                    == serial_tree.construct_result.forest_group_sizes()
                )
            assert validate_tree(tree).ok
            # report mode exercises in-pass expansion on worker state
            got = tree.run([report(b) for b in boxes]).values()
            assert got == [bf_report(pts, b) for b in boxes]

    def test_hotspot_replication_moves_copies_between_workers(self):
        """All queries hit one group: copies must ship worker-to-worker."""
        from repro.geometry.box import Box
        from repro.query import count
        from repro.seq import bf_count
        from repro.workloads import uniform_points

        pts = uniform_points(64, 2, seed=23)
        hot = Box(((0.0, 0.2), (0.0, 1.0)))
        batch = [count(hot)] * 24
        with DistributedRangeTreeProcess(pts) as tree:
            rs = tree.run(batch)
            assert rs.values() == [bf_count(pts, hot)] * 24
            for strategy in ("doubling", "direct"):
                m, counts, _rows = search_summary(tree, [hot] * 24, strategy)
                assert counts == rs.values()
                assert any(
                    s.volume for s in m.comm_steps() if s.label.startswith("search:replicate")
                )


def DistributedRangeTreeProcess(pts):
    from repro.dist import DistributedRangeTree

    return DistributedRangeTree.build(pts, p=4, backend="process")
