"""Tests for the CGM machine simulator (supersteps, metrics, backends)."""

from __future__ import annotations

import pytest

from repro.cgm import CostModel, Machine, SerialBackend, make_backend
from repro.errors import CapacityExceeded, MachineError, ProtocolError

import tests.helpers  # noqa: F401  (registers the test.* phases)


class TestConstruction:
    def test_needs_positive_p(self):
        with pytest.raises(MachineError):
            Machine(0)

    def test_default_backend_serial(self):
        assert Machine(2).backend.name == "serial"

    def test_backend_factory(self):
        assert make_backend("serial").name == "serial"
        assert make_backend("process").name == "process"
        b = SerialBackend()
        assert make_backend(b) is b
        with pytest.raises(ValueError):
            make_backend("mpi")

    def test_context_manager(self):
        with Machine(2, backend="process") as mach:
            assert mach.p == 2


class TestCompute:
    def test_results_in_rank_order(self):
        mach = Machine(4)
        out = mach.run_phase("ranks", "test.echo")
        assert [rank for rank, _p in out] == [0, 1, 2, 3]

    def test_charging_recorded_per_rank(self):
        mach = Machine(3)
        mach.run_phase("w", "test.charge", [1, 2, 3])
        step = mach.metrics.steps[-1]
        assert step.ops == (1, 2, 3)
        assert step.max_ops == 3
        assert step.total_ops == 6

    def test_wall_clock_recorded(self):
        mach = Machine(2)
        mach.run_phase("t", "test.echo")
        step = mach.metrics.steps[-1]
        assert all(s >= 0 for s in step.seconds)
        assert step.kind == "compute"

    def test_context_identity(self):
        mach = Machine(3)
        out = mach.run_phase("ctx", "test.echo")
        assert out == [(0, 3), (1, 3), (2, 3)]


class TestExchange:
    def test_routing_and_order(self):
        mach = Machine(3)
        out = mach.empty_outboxes()
        out[0][2] = ["a", "b"]
        out[1][2] = ["c"]
        out[2][0] = ["d"]
        inboxes = mach.exchange("x", out)
        assert inboxes[2] == ["a", "b", "c"]  # source order preserved
        assert inboxes[0] == ["d"]
        assert inboxes[1] == []

    def test_h_relation_accounting(self):
        mach = Machine(2)
        out = mach.empty_outboxes()
        out[0][1] = [1, 2, 3]
        mach.exchange("x", out)
        step = mach.metrics.steps[-1]
        assert step.sent == (3, 0)
        assert step.received == (0, 3)
        assert step.h == 3
        assert step.volume == 3

    def test_weighted_exchange(self):
        mach = Machine(2)
        out = mach.empty_outboxes()
        out[0][1] = [("blob", 10)]
        mach.exchange_weighted("x", out, weight=lambda rec: rec[1])
        step = mach.metrics.steps[-1]
        assert step.h == 10

    def test_malformed_outboxes_rejected(self):
        mach = Machine(2)
        with pytest.raises(ProtocolError):
            mach.exchange("x", [[[]]])  # wrong outer arity
        with pytest.raises(ProtocolError):
            mach.exchange("x", [[[]], [[]]])  # wrong inner arity

    def test_self_messages_allowed(self):
        mach = Machine(2)
        out = mach.empty_outboxes()
        out[1][1] = ["self"]
        inboxes = mach.exchange("x", out)
        assert inboxes[1] == ["self"]


class TestCapacity:
    def test_capacity_enforced(self):
        mach = Machine(2, capacity=10)
        with pytest.raises(CapacityExceeded):
            mach.check_capacity(1, 11)


class TestMetrics:
    def test_rounds_count_comm_only(self):
        mach = Machine(2)
        mach.run_phase("c1", "test.echo")
        mach.exchange("x", mach.empty_outboxes())
        mach.run_phase("c2", "test.echo")
        assert mach.metrics.rounds == 1

    def test_modeled_time(self):
        mach = Machine(2, cost=CostModel(g=2.0, L=5.0))
        mach.run_phase("c", "test.charge", [10, 10])
        out = mach.empty_outboxes()
        out[0][1] = [1, 2]
        mach.exchange("x", out)
        # 10 ops + g*2 + L = 10 + 4 + 5
        assert mach.modeled_time() == 19.0

    def test_summary_keys(self):
        mach = Machine(2)
        mach.run_phase("c", "test.charge", [3, 3])
        s = mach.metrics.summary()
        assert set(s) == {
            "rounds",
            "max_h",
            "volume",
            "comm_bytes",
            "max_work",
            "total_work",
            "critical_seconds",
        }


class TestBackendEquivalence:
    def test_process_equals_serial(self):
        def run(backend):
            mach = Machine(4, backend=backend)
            r1 = mach.run_phase("a", "test.echo")
            out = mach.empty_outboxes()
            for src in range(4):
                out[src][(src + 1) % 4] = [src]
            r2 = mach.exchange("x", out)
            mach.close()
            return r1, r2, [s.ops for s in mach.metrics.steps]

        assert run("serial") == run("process")
