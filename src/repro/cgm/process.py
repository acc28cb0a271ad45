"""The process backend: persistent supervised workers, one per rank.

Each worker is a host holding one rank: it runs a phase's body over a
block of one (:func:`~repro.cgm.backend.run_block`), the same body the
serial backend runs over all ``p``.  Compute phases travel by name and
payloads by pickle; each rank's state lives in its worker and never
moves (see :mod:`repro.cgm.backend` for the contract both backends
keep).  Only a machine made with
``backend="process"`` loads this module.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Any, Dict, List, Sequence

from ..errors import WorkerCrash
from .backend import Backend, PhaseOutcome, run_block
from .phases import ProcContext, bootstrap, host_body

__all__ = ["ProcessBackend", "WorkerError", "JOURNAL_TAIL"]

#: Journal entries a rank may hold before the recovery journal folds:
#: past this tail every rank's whole state is fetched and its journal
#: becomes one ``("restore", state)`` entry, so replay cost stays bounded
#: however long the workers live.
JOURNAL_TAIL = 64


class WorkerError(RuntimeError):
    """A compute phase failed inside a worker process.

    Carries the worker-side traceback; the driver re-raises the original
    exception instead when it survives pickling.  (A worker *dying* is a
    different condition: :class:`repro.errors.WorkerCrash`.)
    """


def _worker_main(rank: int, conn) -> None:
    """Worker loop: rank state lives here and only here.

    The driver sends ``("phase", name, payload, p)`` / ``("fetch", key)``
    (key ``None``: the whole state dict) / ``("evict", key)`` /
    ``("restore", state)`` (clear the state, then load a snapshot) /
    ``("faults", spec | None)`` / ``("stop",)`` commands; every command
    gets exactly one reply, so the pipe can never desynchronize.  ``p``
    rides each phase command because one worker set may serve machines
    of different sizes (mirroring the in-process rank stores).

    Fault injection: the worker arms any plan named by the
    ``REPRO_FAULT_PLAN`` environment variable at startup (under ``fork``
    it also inherits a driver-installed plan, with counters reset); the
    ``faults`` command re-arms or disarms at runtime — the supervisor
    disarms a respawned worker before replaying its journal so a
    crash-at-k rule cannot re-fire during recovery.
    """
    from .. import faults

    faults.mark_in_worker(rank)
    try:
        bootstrap()
        faults.load_plan_from_env()
        boot_failure: str | None = None
    except Exception:
        # Keep serving: the failure is reported with the first phase the
        # missing imports would have registered, full traceback attached.
        boot_failure = traceback.format_exc()
    state: dict = {}
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - driver died
            break
        cmd = msg[0]
        if cmd == "stop":
            break
        try:
            if cmd == "phase":
                _, name, payload, p = msg
                try:
                    body = host_body(name)
                except KeyError:
                    if boot_failure is not None:
                        raise WorkerError(
                            f"worker bootstrap failed, phase {name!r} "
                            f"unavailable; bootstrap traceback:\n{boot_failure}"
                        ) from None
                    raise
                ctx = ProcContext(rank=rank, p=p, state=state)
                (outcome,) = run_block(body, [ctx], [payload], name)
                try:
                    conn.send(("ok", outcome))
                except Exception as exc:
                    # The *result* failed to serialize: the command still
                    # gets its one reply, with rank/phase context intact.
                    conn.send(
                        (
                            "error",
                            WorkerError(
                                f"rank {rank} phase {name!r} produced an "
                                f"unserializable result: "
                                f"{type(exc).__name__}: {exc}"
                            ),
                            traceback.format_exc(),
                        )
                    )
            elif cmd == "fetch":
                conn.send(("ok", state if msg[1] is None else state.get(msg[1])))
            elif cmd == "evict":
                state.pop(msg[1], None)
                conn.send(("ok", None))
            elif cmd == "restore":
                state.clear()
                state.update(msg[1])
                conn.send(("ok", None))
            elif cmd == "faults":
                if msg[1] is None:
                    faults.uninstall_plan()
                else:
                    faults.install_plan(faults.FaultPlan.from_spec(msg[1]))
                conn.send(("ok", None))
            else:  # pragma: no cover - protocol bug
                conn.send(("error", RuntimeError(f"unknown command {cmd!r}"), ""))
        except BaseException as exc:  # noqa: BLE001 - ship it to the driver
            tb = traceback.format_exc()
            try:
                conn.send(("error", exc, tb))
            except Exception:
                conn.send(
                    ("error", WorkerError(f"{type(exc).__name__}: {exc}"), tb)
                )
    conn.close()


class ProcessBackend(Backend):
    """Persistent *supervised* worker processes — the true process-parallel
    backend.

    One worker per rank, started lazily on first use (``fork`` where the
    platform offers it, ``spawn`` otherwise).  Compute phases are routed
    by *name*; payloads, results, and exchanged records are pickled
    through per-rank pipes, and per-rank state (forest elements, hat
    replicas) stays resident in the worker across phases — nothing else
    crosses the boundary.  Results are collected in rank order, so
    dispatch is deterministic; the machine's driver-side inbox merge
    (ordered by source rank, then send order) does the rest.

    Supervision: replies are awaited with poll-plus-liveness, never a
    bare blocking ``recv`` — a SIGKILL'd, segfaulted, or OOM-killed
    worker raises a structured :class:`~repro.errors.WorkerCrash`
    (rank, command, exit code) instead of hanging the driver, and
    ``recv_timeout_s`` (env ``REPRO_WORKER_TIMEOUT_S``) bounds how long
    an *alive but unresponsive* worker may sit on one command.

    Recovery (opt-in, ``recovery=True`` / env ``REPRO_WORKER_RECOVERY=1``):
    the backend journals every state-bearing command per rank (``phase``
    dispatches and ``evict`` removals — payload references, no copies).
    Once a rank's journal holds more than :data:`JOURNAL_TAIL` entries,
    every rank's state is fetched whole and its journal becomes one
    ``("restore", state)`` entry, so a journal never exceeds the tail
    plus that snapshot.  When a worker crashes, the supervisor respawns
    that rank, disarms fault injection in the replacement, replays its
    journal to reconstruct the rank-resident state, re-sends the
    in-flight command, and the round continues — differential tests
    assert the recovered run is bit-identical to an uninterrupted one.
    Phases must be deterministic for replay to be faithful (they are:
    that is the cross-backend determinism contract).  Without recovery, a crash
    resets the whole pool so the next use fails loudly on missing state
    instead of silently pairing stale replies with new commands.
    """

    name = "process"

    #: Liveness-check cadence while waiting on a reply (seconds).
    POLL_INTERVAL_S = 0.05

    def __init__(
        self,
        recv_timeout_s: float | None = None,
        recovery: bool | None = None,
    ) -> None:
        if recv_timeout_s is None:
            env = os.environ.get("REPRO_WORKER_TIMEOUT_S")
            recv_timeout_s = float(env) if env else None
        if recovery is None:
            recovery = os.environ.get("REPRO_WORKER_RECOVERY", "") == "1"
        self._recv_timeout_s = recv_timeout_s
        self._recovery = bool(recovery)
        self._workers: List[tuple] = []  # (Process, Connection) per rank
        self._journal: Dict[int, List[tuple]] = {}
        self._mp_ctx = None
        #: Successful crash recoveries performed (observability/tests).
        self.recoveries = 0

    # -- worker lifecycle --------------------------------------------------
    def _context(self):
        if self._mp_ctx is None:
            import multiprocessing as mp

            try:
                self._mp_ctx = mp.get_context("fork")
            except ValueError:  # the platform offers no fork
                self._mp_ctx = mp.get_context("spawn")
        return self._mp_ctx

    def _spawn(self, rank: int) -> tuple:
        ctx = self._context()
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(rank, child),
            name=f"cgm-proc-{rank}",
            daemon=True,
        )
        proc.start()
        child.close()
        return proc, parent

    def _ensure_workers(self, p: int) -> None:
        """Grow the worker set to at least ``p`` ranks, never shrinking.

        Like the in-process rank stores, one worker set may serve
        machines of different sizes in turn; existing workers (and their
        resident state) survive a larger or smaller machine coming along.
        """
        for rank in range(len(self._workers), p):
            self._workers.append(self._spawn(rank))
            self._journal.setdefault(rank, [])

    # -- supervised receive ------------------------------------------------
    def _recv_reply(self, rank: int, what: str):
        """One reply from one rank, or a structured :class:`WorkerCrash`.

        Polls the pipe at :data:`POLL_INTERVAL_S` so a dead worker is
        noticed within one interval; a pending reply always wins over a
        death verdict (a worker may exit right after flushing its last
        reply), so no successful result is ever discarded.
        """
        proc, conn = self._workers[rank]
        deadline = (
            None
            if self._recv_timeout_s is None
            else time.monotonic() + self._recv_timeout_s
        )
        while True:
            if conn.poll(self.POLL_INTERVAL_S):
                try:
                    return conn.recv()
                except (EOFError, OSError):
                    proc.join(timeout=1)
                    raise WorkerCrash(
                        rank, what, proc.exitcode,
                        reason="pipe closed mid-command",
                    ) from None
            if not proc.is_alive():
                if conn.poll(0):  # reply flushed just before death
                    continue
                proc.join(timeout=1)
                raise WorkerCrash(rank, what, proc.exitcode)
            if deadline is not None and time.monotonic() > deadline:
                raise WorkerCrash(
                    rank, what, None,
                    reason=(
                        f"no reply within {self._recv_timeout_s:g}s "
                        "(worker alive but unresponsive)"
                    ),
                )

    # -- crash recovery ----------------------------------------------------
    def _recover(self, rank: int, msg: tuple, what: str, crash: WorkerCrash):
        """Respawn a crashed rank, replay its journal, re-send ``msg``.

        Returns the re-sent command's reply.  Fault injection is
        disarmed in the replacement first, so the occurrence-counted
        rule that killed the original cannot re-fire mid-replay.  A
        second crash during recovery gives up: the pool resets and the
        *original* crash propagates (chained).
        """
        if not self._recovery:
            proc, _conn = self._workers[rank]
            if proc.is_alive():  # timed out, not dead: don't wait on "stop"
                proc.terminate()
            self.close()
            raise crash
        old_proc, old_conn = self._workers[rank]
        old_conn.close()
        if old_proc.is_alive():  # recv-timeout crash: worker hung, not dead
            old_proc.terminate()
        old_proc.join(timeout=1)
        self._workers[rank] = self._spawn(rank)
        _proc, conn = self._workers[rank]
        try:
            conn.send(("faults", None))
            self._recv_reply(rank, "faults:disarm")
            for entry in self._journal[rank]:
                conn.send(entry)
                reply = self._recv_reply(rank, f"replay:{entry[0]}")
                if reply[0] == "error":
                    raise WorkerCrash(
                        rank, what, None,
                        reason=(
                            f"journal replay diverged on {entry[0]!r}: "
                            f"{reply[1]}"
                        ),
                    )
            conn.send(msg)
            reply = self._recv_reply(rank, what)
        except WorkerCrash:
            self.close()
            raise crash from None
        self.recoveries += 1
        return reply

    def _roundtrip(self, p: int, messages: Sequence[tuple], what: str) -> List[Any]:
        """Send one command per rank, collect one reply per rank (in order)."""
        self._ensure_workers(p)
        workers = self._workers[:p]
        send_crashes: Dict[int, WorkerCrash] = {}
        delivered: List[int] = []
        try:
            for rank, ((proc, conn), msg) in enumerate(zip(workers, messages)):
                try:
                    conn.send(msg)
                except (BrokenPipeError, ConnectionResetError, EOFError):
                    # The worker on the other end is gone: note the crash
                    # and keep feeding the live ranks; the reply loop
                    # below recovers (or gives up) in rank order.
                    proc.join(timeout=1)
                    send_crashes[rank] = WorkerCrash(
                        rank, what, proc.exitcode,
                        reason="pipe broken on send",
                    )
                else:
                    delivered.append(rank)
        except Exception:
            # A driver-side send failure (unpicklable payload) must not
            # desynchronize the pipes: every delivered command gets exactly
            # one reply, so drain the acks already owed before re-raising.
            try:
                for rank in delivered:
                    self._recv_reply(rank, what)
            except WorkerCrash:
                self.close()  # pool is broken anyway; the send error leads
            raise
        replies: List[Any] = []
        failure: tuple | None = None
        journaled = False
        for rank in range(p):
            try:
                crash = send_crashes.get(rank)
                if crash is not None:
                    raise crash
                reply = self._recv_reply(rank, what)
            except WorkerCrash as crash:
                # _recover raises the crash (after a pool reset) when
                # recovery is off or fails; otherwise the rank is rebuilt
                # and this is its reply to the re-sent command.
                reply = self._recover(rank, messages[rank], what, crash)
            if reply[0] == "error":
                if failure is None:
                    failure = (rank, reply[1], reply[2] if len(reply) > 2 else "")
            elif messages[rank][0] in ("phase", "evict"):
                # Journal only state-bearing commands that *succeeded*:
                # replay reconstructs state, and failed phases are not
                # re-raised into a recovering worker.
                if self._recovery:
                    self._journal[rank].append(messages[rank])
                    journaled = True
            replies.append(reply)
        if failure is not None:
            rank, exc, tb = failure
            if isinstance(exc, Exception):
                raise exc
            if isinstance(exc, BaseException):
                # A worker-raised BaseException (SystemExit,
                # KeyboardInterrupt) must not masquerade as a driver-side
                # one — wrap it with its rank/command context instead.
                raise WorkerError(
                    f"rank {rank} raised {type(exc).__name__} during "
                    f"{what!r}\n{tb}"
                ) from exc
            raise WorkerError(f"rank {rank} failed: {exc}\n{tb}")
        if journaled and any(len(self._journal[r]) > JOURNAL_TAIL for r in range(p)):
            self._snapshot(p)
        return [r[1] for r in replies]

    def _snapshot(self, p: int) -> None:
        """Fold every rank's journal into one ``("restore", state)`` entry."""
        states = self._roundtrip(p, [("fetch", None)] * p, "fetch:snapshot")
        for rank, state in enumerate(states):
            self._journal[rank] = [("restore", state)]

    # -- Backend interface -------------------------------------------------
    def run_phase(
        self, p: int, phase: str, payloads: Sequence[Any]
    ) -> List[PhaseOutcome]:
        return self._roundtrip(
            p, [("phase", phase, payloads[r], p) for r in range(p)], phase
        )

    def fetch_state(self, p: int, key: str) -> List[Any]:
        return self._roundtrip(p, [("fetch", key)] * p, f"fetch:{key}")

    def evict_state(self, p: int, key: str) -> None:
        self._roundtrip(p, [("evict", key)] * p, f"evict:{key}")

    def close(self) -> None:
        """Stop all workers; safe after a crash, safe to call twice.

        Dead workers are skipped (a send to a closed pipe is caught, a
        join on a zombie returns immediately); a live-but-stuck worker
        is terminated after a bounded join, then killed.  The journal is
        dropped with the workers — their state is gone, so replaying it
        into fresh workers would lie.
        """
        for proc, conn in self._workers:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError, ValueError):
                pass  # dead worker or already-closed pipe
        for proc, conn in self._workers:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1)
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        self._workers = []
        self._journal = {}
