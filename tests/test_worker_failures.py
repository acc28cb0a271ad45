"""Worker failure modes: the supervised process backend never hangs.

Every scenario here used to be a driver hang (a bare ``conn.recv`` on a
pipe nobody will ever write to); now each is a structured
:class:`~repro.errors.WorkerCrash` / ``WorkerError`` carrying the ranks
and the command it died under.  The conftest hang guard (pytest-timeout
or the SIGALRM fallback) turns any regression back into a loud failure.

Every test here runs the process backend on two workers, whatever CPUs
the machine has: a ``p = 2`` machine is two hosts of one rank, a
``p = 4`` machine two hosts of two.
"""

from __future__ import annotations

import os
import pickle
import signal
import time

import pytest

from repro.cgm import Machine, ProcessBackend, register_phase
from repro.errors import DimensionMismatch, MachineError, WorkerCrash
from repro.cgm.process import JOURNAL_TAIL, WorkerError

from tests.helpers import pin_usable_cpus


@pytest.fixture(autouse=True)
def _two_hosts(monkeypatch):
    pin_usable_cpus(monkeypatch, 2)


@register_phase("wf.echo")
def _phase_echo(ctx, payload):
    return payload


@register_phase("wf.stash")
def _phase_stash(ctx, payload):
    ctx.state["wf"] = ctx.state.get("wf", 0) + payload
    return ctx.state["wf"]


@register_phase("wf.sigkill")
def _phase_sigkill(ctx, payload):
    """SIGKILL our own worker process when rank == payload."""
    if ctx.rank == payload:
        os.kill(os.getpid(), signal.SIGKILL)
    return ctx.rank


@register_phase("wf.sysexit")
def _phase_sysexit(ctx, payload):
    if ctx.rank == payload:
        raise SystemExit(3)
    return ctx.rank


@register_phase("wf.unpicklable")
def _phase_unpicklable(ctx, payload):
    if ctx.rank == payload:
        return lambda: None  # locals never pickle
    return ctx.rank


class _Unpicklable(Exception):
    """An error carrying a value that never pickles."""

    def __init__(self) -> None:
        super().__init__("holds a lambda")
        self.held = lambda: None


@register_phase("wf.raise_unpicklable")
def _phase_raise_unpicklable(ctx, payload):
    if ctx.rank == payload:
        raise _Unpicklable()
    return ctx.rank


@register_phase("wf.mismatch")
def _phase_mismatch(ctx, payload):
    if ctx.rank == payload:
        raise DimensionMismatch(2, 5, "box")
    return ctx.rank


@register_phase("wf.stall")
def _phase_stall(ctx, payload):
    if ctx.rank == payload:
        time.sleep(30)
    return ctx.rank


class TestStructuredCrashes:
    def test_sigkill_mid_phase_raises_worker_crash(self):
        backend = ProcessBackend()
        try:
            with pytest.raises(WorkerCrash) as exc:
                backend.run_phase(2, "wf.sigkill", [1, 1])
            assert exc.value.rank == 1
            assert exc.value.phase == "wf.sigkill"
            assert exc.value.exit_code == -signal.SIGKILL
        finally:
            backend.close()

    def test_base_exception_is_wrapped_with_context(self):
        backend = ProcessBackend()
        try:
            with pytest.raises(WorkerError, match="rank 1 raised SystemExit"):
                backend.run_phase(2, "wf.sysexit", [1, 1])
            # the pool survives a raised (not crashed) worker
            out = backend.run_phase(2, "wf.echo", [7, 8])
            assert [o[0] for o in out] == [7, 8]
        finally:
            backend.close()

    def test_a_library_error_reaches_the_driver_as_raised(self):
        backend = ProcessBackend()
        try:
            with pytest.raises(DimensionMismatch) as exc:
                backend.run_phase(2, "wf.mismatch", [1, 1])
            assert (str(exc.value), exc.value.expected, exc.value.got) == (
                "expected box of dimension 2, got 5", 2, 5,
            )
            # every reply was read: the next command gets its own
            out = backend.run_phase(2, "wf.echo", [3, 4])
            assert [o[0] for o in out] == [3, 4]
        finally:
            backend.close()

    def test_unpicklable_result_reports_rank_and_phase(self):
        backend = ProcessBackend()
        try:
            with pytest.raises(
                WorkerError, match="rank 0 .*unserializable result"
            ):
                backend.run_phase(2, "wf.unpicklable", [0, 0])
            # one command, one reply: the pipes stay synchronized
            out = backend.run_phase(2, "wf.echo", [1, 2])
            assert [o[0] for o in out] == [1, 2]
        finally:
            backend.close()

    def test_an_unpicklable_error_reports_rank_phase_and_error(self):
        backend = ProcessBackend()
        try:
            with pytest.raises(
                WorkerError, match=r"rank 1 phase 'wf.raise_unpicklable' .*unserializable _Unpicklable"
            ) as exc:
                backend.run_phase(2, "wf.raise_unpicklable", [1, 1])
            assert "holds a lambda" in str(exc.value)
            # one command, one reply: the pipes stay synchronized
            out = backend.run_phase(2, "wf.echo", [1, 2])
            assert [o[0] for o in out] == [1, 2]
        finally:
            backend.close()

    def test_unpicklable_payload_fails_without_desync(self):
        backend = ProcessBackend()
        try:
            with pytest.raises(Exception):
                backend.run_phase(2, "wf.echo", [lambda: None, 1])
        finally:
            backend.close()

    def test_a_crash_names_every_rank_of_the_lost_block(self):
        backend = ProcessBackend()
        try:
            with pytest.raises(WorkerCrash) as exc:
                backend.run_phase(4, "wf.sigkill", [3] * 4)
            assert (exc.value.rank, exc.value.ranks) == (2, (2, 3))
            assert str(exc.value).startswith("ranks 2-3 crashed during 'wf.sigkill'")
        finally:
            backend.close()

    def test_a_failed_bootstrap_is_reported_with_the_missing_phase(self, monkeypatch):
        from repro.cgm import phases

        monkeypatch.setattr(phases, "BOOTSTRAP_MODULES", ("repro.no_such_module",))
        backend = ProcessBackend()
        try:
            # a forked worker still knows the driver's phases ...
            assert [o[0] for o in backend.run_phase(2, "wf.echo", [5, 6])] == [5, 6]
            # ... and names the bootstrap failure for one it lacks
            with pytest.raises(WorkerError, match="(?s)bootstrap failed, phase 'wf.nowhere'.*no_such_module"):
                backend.run_phase(2, "wf.nowhere", [None, None])
        finally:
            backend.close()

    @pytest.mark.timeout(20)
    def test_recv_timeout_on_unresponsive_worker(self):
        backend = ProcessBackend(recv_timeout_s=0.5)
        try:
            t0 = time.monotonic()
            with pytest.raises(WorkerCrash) as exc:
                backend.run_phase(2, "wf.stall", [1, 1])
            elapsed = time.monotonic() - t0
            assert exc.value.rank == 1
            assert exc.value.exit_code is None
            assert "unresponsive" in exc.value.reason
            assert elapsed < 5  # detected promptly, no 30s wait
        finally:
            backend.close()


class TestCloseAfterCrash:
    def test_close_is_idempotent_over_dead_workers(self):
        backend = ProcessBackend()
        with pytest.raises(WorkerCrash):
            backend.run_phase(2, "wf.sigkill", [0, 0])
        backend.close()  # crash already reset the pool; this is a no-op
        backend.close()  # ... and so is a second close
        assert backend._workers == []

    def test_backend_usable_again_after_crash_reset(self):
        backend = ProcessBackend()
        try:
            with pytest.raises(WorkerCrash):
                backend.run_phase(2, "wf.sigkill", [0, 0])
            # the pool was torn down; the next use builds a fresh one
            out = backend.run_phase(2, "wf.echo", [1, 2])
            assert [o[0] for o in out] == [1, 2]
        finally:
            backend.close()

    def test_machine_exit_does_not_mask_inflight_crash(self):
        with pytest.raises(WorkerCrash):
            with Machine(2, backend=ProcessBackend()) as mach:
                mach.run_phase("k", "wf.sigkill", [0, 0])


class TestRecovery:
    def test_external_kill_between_phases_replays_journal(self):
        backend = ProcessBackend(recovery=True)
        try:
            with Machine(2, backend=backend) as mach:
                assert mach.run_phase("base", "wf.stash", [10, 20]) == [10, 20]
                mach.evict_state("wf")
                first = mach.run_phase("a", "wf.stash", [1, 2])
                assert first == [1, 2]
                # murder rank 1 from outside, between commands
                proc, _conn = backend._workers[1]
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=5)
                # next phase hits the broken pipe, recovers rank 1 from
                # its journal (stash + evict + stash), and keeps accumulating
                second = mach.run_phase("b", "wf.stash", [1, 2])
                assert second == [2, 4]
                assert backend.recoveries == 1
                assert mach.fetch_state("wf") == [2, 4]
        finally:
            backend.close()

    def test_a_killed_host_replays_its_whole_block(self):
        backend = ProcessBackend(recovery=True)
        try:
            with Machine(4, backend=backend) as mach:
                assert mach.run_phase("a", "wf.stash", [1, 2, 3, 4]) == [1, 2, 3, 4]
                assert sorted(backend._journal) == [0, 1]  # one journal a host
                proc, _conn = backend._workers[1]  # the host of ranks 2 and 3
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=5)
                assert mach.run_phase("b", "wf.stash", [1, 1, 1, 1]) == [2, 3, 4, 5]
                assert backend.recoveries == 1
                assert mach.fetch_state("wf") == [2, 3, 4, 5]
        finally:
            backend.close()

    def test_the_journal_folds_into_a_snapshot_and_replays_it(self):
        from repro.dist import DistributedRangeTree
        from repro.geometry import Box
        from repro.query import count, report
        from repro.workloads import make_points

        pts = make_points("uniform", 64, 2, seed=4)
        batch = [count(Box(((0.0, 0.25), (0.0, 1.0))))] * 8 + [report(Box.full(2, 0.2, 0.7))]
        backend = ProcessBackend(recovery=True)
        try:
            with Machine(2, backend=backend) as mach:
                tree = DistributedRangeTree.build(pts, machine=mach)
                want = tree.run(batch).values()
                for _ in range(200):
                    tree.run(batch)
                journals = backend._journal.values()
                assert max(len(j) for j in journals) <= JOURNAL_TAIL + 1
                # each journal opens with a restore frame of the store its
                # worker pickled, held as bytes the driver never opened
                heads = [pickle.loads(j[0]) for j in journals]
                assert [h[0] for h in heads] == ["restore", "restore"]
                assert all(isinstance(h[2], bytes) for h in heads)
                proc, _conn = backend._workers[1]
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=5)
                assert tree.run(batch).values() == want
                assert backend.recoveries == 1
        finally:
            backend.close()

    def test_an_unpicklable_payload_runs_on_no_host(self):
        """A phase runs on every host or on none: a payload that will not
        pickle for rank 3 raises before host 0 runs it, so no rank's state
        moves and a recovery replays the state the hosts really hold."""
        backend = ProcessBackend(recovery=True)
        try:
            with Machine(4, backend=backend) as mach:
                mach.run_phase("a", "wf.stash", [1, 1, 1, 1])
                with pytest.raises((pickle.PicklingError, AttributeError)):
                    mach.run_phase("b", "wf.stash", [1, 1, 1, lambda: None])
                assert mach.fetch_state("wf") == [1, 1, 1, 1]
                proc, _conn = backend._workers[0]  # the host of ranks 0 and 1
                os.kill(proc.pid, signal.SIGKILL)
                proc.join(timeout=5)
                assert mach.fetch_state("wf") == [1, 1, 1, 1]
                assert backend.recoveries == 1
        finally:
            backend.close()

    def test_unconditionally_crashing_phase_still_fails(self):
        # recovery must give up (and propagate the original crash) when
        # the re-sent command deterministically kills the replacement too
        backend = ProcessBackend(recovery=True)
        try:
            with pytest.raises(WorkerCrash) as exc:
                backend.run_phase(2, "wf.sigkill", [1, 1])
            assert exc.value.rank == 1
            assert backend.recoveries == 0
        finally:
            backend.close()

    def test_env_knobs_configure_the_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT_S", "2.5")
        monkeypatch.setenv("REPRO_WORKER_RECOVERY", "1")
        backend = ProcessBackend()
        assert backend._recv_timeout_s == 2.5
        assert backend._recovery is True

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "abc"])
    def test_a_bad_timeout_in_the_environment_is_refused(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_WORKER_TIMEOUT_S", value)
        with pytest.raises(MachineError, match="REPRO_WORKER_TIMEOUT_S must be a finite"):
            ProcessBackend()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1, 0, "abc"])
    def test_a_bad_timeout_argument_is_refused(self, value):
        with pytest.raises(MachineError, match="recv_timeout_s must be a finite"):
            ProcessBackend(recv_timeout_s=value)

    @pytest.mark.parametrize("value", ["true", "yes", "2", " 1"])
    def test_a_bad_recovery_value_in_the_environment_is_refused(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_WORKER_RECOVERY", value)
        with pytest.raises(MachineError, match="REPRO_WORKER_RECOVERY must be"):
            ProcessBackend()

    @pytest.mark.parametrize("value, on", [("", False), ("0", False), ("1", True)])
    def test_the_recovery_values_in_the_environment(self, monkeypatch, value, on):
        monkeypatch.setenv("REPRO_WORKER_RECOVERY", value)
        monkeypatch.delenv("REPRO_WORKER_TIMEOUT_S", raising=False)
        backend = ProcessBackend()
        assert (backend._recovery, backend._recv_timeout_s) == (on, None)
