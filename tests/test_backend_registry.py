"""The backend names and machine/tree lifecycle ownership."""

from __future__ import annotations

import pytest

from repro.cgm import (
    Backend,
    Machine,
    ProcessBackend,
    SerialBackend,
    available_backends,
    make_backend,
)

import tests.helpers  # noqa: F401  (registers the test.* phases)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert available_backends() == ["process", "serial"]

    def test_factory_returns_fresh_instances(self):
        assert make_backend("serial") is not make_backend("serial")
        assert isinstance(make_backend("process"), ProcessBackend)

    def test_instance_passes_through(self):
        b = SerialBackend()
        assert make_backend(b) is b

    def test_unknown_backend_error_lists_registry(self):
        with pytest.raises(ValueError) as ei:
            make_backend("mpi")
        msg = str(ei.value)
        # One mapping is the single source of truth: every backend name
        # must appear in the error, so the message cannot drift.
        for name in available_backends():
            assert repr(name) in msg

    def test_cli_choices_match_registry(self):
        """The CLI's --backend choices are the backend names."""
        from repro.cli import build_parser

        parser = build_parser()
        query = next(
            a
            for a in parser._subparsers._group_actions[0].choices[
                "query"
            ]._actions
            if "--backend" in getattr(a, "option_strings", ())
        )
        assert list(query.choices) == available_backends()


class TestOwnership:
    def test_machine_closes_owned_backend(self):
        mach = Machine(2, backend="process")
        mach.run_phase("warm", "test.echo")
        assert mach.backend._workers
        mach.close()
        assert not mach.backend._workers

    def test_machine_leaves_passed_backend_open(self):
        backend = ProcessBackend()
        with Machine(2, backend=backend) as mach:
            mach.run_phase("warm", "test.echo")
        assert backend._workers  # caller's responsibility
        backend.close()
        assert not backend._workers

    def test_machine_context_manager(self):
        with Machine(2, backend="process") as mach:
            mach.run_phase("warm", "test.echo")
        assert not mach.backend._workers

    def test_tree_closes_owned_machine(self):
        from repro.dist import DistributedRangeTree
        from repro.workloads import uniform_points

        with DistributedRangeTree.build(
            uniform_points(32, 2, seed=0), p=4, backend="process"
        ) as tree:
            assert tree.machine.backend._workers
        assert not tree.machine.backend._workers

    def test_tree_leaves_shared_machine_open(self):
        from repro.dist import DistributedRangeTree
        from repro.workloads import uniform_points

        with Machine(4, backend="process") as mach:
            with DistributedRangeTree.build(
                uniform_points(32, 2, seed=0), machine=mach
            ):
                pass
            # the tree exited; the shared machine must still be usable
            assert mach.run_phase("alive", "test.echo") == [(r, 4) for r in range(4)]

    def test_close_idempotent(self):
        mach = Machine(2, backend="process")
        mach.run_phase("warm", "test.echo")
        mach.close()
        mach.close()

    def test_tree_close_evicts_resident_state_on_shared_machine(self):
        """Trees built in sequence on one machine must not accumulate state."""
        from repro.dist import DistributedRangeTree
        from repro.workloads import uniform_points

        with Machine(4) as mach:
            for i in range(3):
                tree = DistributedRangeTree.build(
                    uniform_points(32, 2, seed=i), machine=mach
                )
                tree.close()
            live = [
                k
                for st in mach.backend.states(4)
                for k, v in st.items()
                if v is not None
            ]
            assert not live, f"leaked rank-resident state: {live}"

    @pytest.mark.parametrize("backend", available_backends())
    def test_tree_close_evicts_exactly_its_keys(self, backend):
        """A searched tree holds exactly ``tree_keys(ns)`` on every rank,
        and closing it leaves none of them."""
        from repro.dist import DistributedRangeTree
        from repro.dist.construct import tree_keys
        from repro.query import count
        from repro.workloads import uniform_points

        with Machine(4, backend=backend) as mach:
            tree = DistributedRangeTree.build(uniform_points(64, 2, seed=4), machine=mach)
            tree.run([count(((0.1, 0.9), (0.0, 0.5)))])
            ns = tree.construct_result.ns

            def held():
                keys = mach.run_phase("probe", "test.state_keys")
                return [[k for k in mine if k.startswith(f"{ns}:")] for mine in keys]

            assert held() == [sorted(tree_keys(ns))] * 4
            tree.close()
            assert held() == [[]] * 4

    def test_machines_sharing_a_backend_do_not_collide(self):
        """State namespaces are global: two machines, one backend, two trees."""
        from repro.dist import DistributedRangeTree
        from repro.geometry import Box
        from repro.query import count
        from repro.seq import bf_count
        from repro.workloads import uniform_points

        backend = SerialBackend()
        pts1 = uniform_points(32, 2, seed=31)
        pts2 = uniform_points(32, 2, seed=32)
        m1 = Machine(4, backend=backend)
        m2 = Machine(4, backend=backend)
        t1 = DistributedRangeTree.build(pts1, machine=m1)
        t2 = DistributedRangeTree.build(pts2, machine=m2)
        assert t1.construct_result.ns != t2.construct_result.ns
        box = Box(((0.1, 0.8), (0.2, 0.9)))
        assert t1.run(count(box)).value(0) == bf_count(pts1, box)
        assert t2.run(count(box)).value(0) == bf_count(pts2, box)
        backend.close()


class TestAbstractBackend:
    def test_run_phase_abstract(self):
        with pytest.raises(NotImplementedError):
            Backend().run_phase(1, "test.echo", [None])
