"""The process backend: persistent supervised workers, one per usable CPU.

Each worker is a host holding a contiguous block of ranks in a
:class:`~repro.cgm.backend.RankStore`, the store and phase runner the
serial backend keeps for all ``p``.  Compute phases travel by name and
payloads by pickle; each rank's state lives in its worker and never
moves (see :mod:`repro.cgm.backend` for the contract both backends
keep).  Only a machine made with ``backend="process"`` loads this module.
"""

from __future__ import annotations

import os
import time
import traceback
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Dict, List

from ..errors import MachineError, WorkerCrash
from .backend import Backend, RankStore
from .phases import bootstrap, registered_phases

__all__ = ["ProcessBackend", "WorkerError", "JOURNAL_TAIL", "usable_cpus"]

#: Journal entries a host may hold before the recovery journal folds:
#: past this tail every worker pickles its whole store and its host's
#: journal becomes one ``("restore", block, store)`` frame, so replay cost
#: stays bounded however long the workers live.
JOURNAL_TAIL = 64


def _frame(message: tuple) -> memoryview:
    """A message pickled once: what crosses a pipe, is journaled and replayed."""
    return ForkingPickler.dumps(message)


_STOP = _frame(("stop",))
_DISARM = _frame(("faults", None))


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - no affinity here


def _named(block: range) -> str:
    return f"rank {block[0]}" if len(block) == 1 else f"ranks {block[0]}-{block[-1]}"


def _seconds(value: Any, name: str) -> float:
    """A reply timeout: a finite number of seconds above 0."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        seconds = float("nan")
    if not 0 < seconds < float("inf"):
        raise MachineError(f"{name} must be a finite number of seconds > 0, got {value!r}")
    return seconds


class WorkerError(RuntimeError):
    """A compute phase failed inside a worker process.

    Carries the worker-side traceback; the driver re-raises the original
    exception instead when it survives pickling.  (A worker *dying* is a
    different condition: :class:`repro.errors.WorkerCrash`.)
    """


def _worker_main(host: int, conn) -> None:
    """Worker loop: the state of the ranks this host holds lives here and
    only here.

    The driver sends :class:`~repro.cgm.backend.RankStore` commands
    (``("run_block", block, p, phase, payloads)``, ``fetch``, ``evict``,
    ``snapshot``, ``restore``: each names the block of ranks it is for,
    since one worker set may serve machines of different sizes, each laid
    out in its own blocks), ``("faults", spec | None)`` and ``("stop",)``;
    every command but ``stop`` gets exactly one reply frame, so the pipe
    can never desynchronize.

    Fault injection: the worker arms any plan named by the
    ``REPRO_FAULT_PLAN`` environment variable at startup (under ``fork``
    it also inherits a driver-installed plan, with counters reset); the
    ``faults`` command re-arms or disarms at runtime — the supervisor
    disarms a respawned worker before replaying its journal so a
    crash-at-k rule cannot re-fire during recovery.
    """
    from .. import faults

    faults.mark_in_worker(host)
    try:
        bootstrap()
        faults.load_plan_from_env()
        boot_failure: str | None = None
    except Exception:
        # Keep serving: the failure is reported with the first phase the
        # missing imports would have registered, full traceback attached.
        boot_failure = traceback.format_exc()
    store = RankStore()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # pragma: no cover - driver died
            break
        cmd = msg[0]
        if cmd == "stop":
            break
        try:
            if cmd == "faults":
                if msg[1] is None:
                    faults.uninstall_plan()
                else:
                    faults.install_plan(faults.FaultPlan.from_spec(msg[1]))
                reply = ("ok", None)
            elif cmd == "run_block" and boot_failure and msg[3] not in registered_phases():
                raise WorkerError(
                    f"worker bootstrap failed, phase {msg[3]!r} "
                    f"unavailable; bootstrap traceback:\n{boot_failure}"
                )
            else:
                reply = ("ok", store.run(msg))
        except BaseException as exc:  # noqa: BLE001 - ship it to the driver
            reply = ("error", exc, traceback.format_exc())
        try:
            frame = _frame(reply)
        except Exception as exc:
            what = f"phase {msg[3]!r}" if cmd == "run_block" else repr(cmd)
            shipped = "result" if reply[0] == "ok" else repr(reply[1])
            error = WorkerError(
                f"{_named(msg[1])} {what} produced an unserializable "
                f"{shipped}: {type(exc).__name__}: {exc}"
            )
            tb = reply[2] if reply[0] == "error" else traceback.format_exc()
            frame = _frame(("error", error, tb))
        conn.send_bytes(frame)
    conn.close()


class ProcessBackend(Backend):
    """Persistent *supervised* worker processes — the true process-parallel
    backend.

    A ``p``-rank machine runs on ``k = min(p, usable_cpus())`` workers,
    worker ``h`` holding ranks ``p*h//k`` to ``p*(h+1)//k - 1``
    (:meth:`blocks`; the CPUs are counted once, so a rank never changes
    host), started lazily on first use (``fork`` where the platform
    offers it, ``spawn`` otherwise).  Compute phases are routed by
    *name*; payloads, results, and exchanged records cross per-host
    pipes as frames (:func:`_frame`; a command is pickled for every host
    before any is sent, so it runs on all or none), and rank state
    (forest elements, hat replicas) stays resident in the worker across
    phases.  Replies come back in host order, so dispatch is
    deterministic; the machine's driver-side inbox merge (ordered by
    source rank, then send order) does the rest.

    Supervision: replies are awaited with poll-plus-liveness, never a
    bare blocking ``recv`` — a SIGKILL'd, segfaulted, or OOM-killed
    worker raises a structured :class:`~repro.errors.WorkerCrash` (the
    host's ranks, command, exit code) instead of hanging the driver, and
    ``recv_timeout_s`` (env ``REPRO_WORKER_TIMEOUT_S``; seconds > 0) bounds
    how long an *alive but unresponsive* worker may sit on one command.

    Recovery (opt-in, ``recovery=True`` / env ``REPRO_WORKER_RECOVERY=1``):
    the backend journals the frame of every state-bearing command a host
    acknowledged (``run_block`` dispatches and ``evict`` removals).  Past
    :data:`JOURNAL_TAIL` frames, every worker pickles its whole store and
    its host's journal becomes one ``restore`` frame of those bytes.  A
    crash loses the host's whole block: the supervisor respawns that
    host, disarms fault injection in the replacement, replays its
    journal's frames to rebuild the block's state, re-sends the in-flight
    frame, and the round continues — differential tests assert the
    recovered run is bit-identical to an uninterrupted one.
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
        env = os.environ.get("REPRO_WORKER_TIMEOUT_S")
        if recv_timeout_s is not None:
            recv_timeout_s = _seconds(recv_timeout_s, "recv_timeout_s")
        elif env:
            recv_timeout_s = _seconds(env, "REPRO_WORKER_TIMEOUT_S")
        if recovery is None:
            env = os.environ.get("REPRO_WORKER_RECOVERY", "")
            if env not in ("", "0", "1"):
                raise MachineError(f"REPRO_WORKER_RECOVERY must be '', '0' or '1', got {env!r}")
            recovery = env == "1"
        self._recv_timeout_s = recv_timeout_s
        self._recovery = bool(recovery)
        self._cpus = usable_cpus()
        self._workers: List[tuple] = []  # (Process, Connection) per host
        self._journal: Dict[int, List[memoryview]] = {}  # frames per host
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

    def blocks(self, p: int) -> List[range]:
        k = min(p, self._cpus)
        return [range(p * h // k, p * (h + 1) // k) for h in range(k)]

    def _spawn(self, host: int) -> tuple:
        ctx = self._context()
        parent, child = ctx.Pipe()
        proc = ctx.Process(
            target=_worker_main,
            args=(host, child),
            name=f"cgm-host-{host}",
            daemon=True,
        )
        proc.start()
        child.close()
        return proc, parent

    def _ensure_workers(self, k: int) -> None:
        """Grow the worker set to at least ``k`` hosts, never shrinking.

        Like the in-process rank store, one worker set may serve
        machines of different sizes in turn; existing workers (and their
        resident state) survive a larger or smaller machine coming along.
        """
        for host in range(len(self._workers), k):
            self._workers.append(self._spawn(host))
            self._journal.setdefault(host, [])

    # -- supervised receive ------------------------------------------------
    def _recv_reply(self, host: int, block: range, what: str):
        """One reply from one host, or a :class:`WorkerCrash` naming its block.

        Polls the pipe at :data:`POLL_INTERVAL_S` so a dead worker is
        noticed within one interval; a pending reply always wins over a
        death verdict (a worker may exit right after flushing its last
        reply), so no successful result is ever discarded.
        """
        proc, conn = self._workers[host]
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
                    reason = "pipe closed mid-command"
                    break
            if not proc.is_alive():
                if conn.poll(0):  # reply flushed just before death
                    continue
                proc.join(timeout=1)
                reason = "worker died mid-command"
                break
            if deadline is not None and time.monotonic() > deadline:
                reason = (
                    f"no reply within {self._recv_timeout_s:g}s "
                    "(worker alive but unresponsive)"
                )
                break
        raise WorkerCrash(block[0], what, proc.exitcode, reason=reason, ranks=tuple(block))

    # -- crash recovery ----------------------------------------------------
    def _recover(self, host: int, block: range, frame: memoryview, what: str, crash: WorkerCrash):
        """Respawn a crashed host, replay its journal, re-send ``frame``.

        Returns the re-sent command's reply.  Fault injection is
        disarmed in the replacement first, so the occurrence-counted
        rule that killed the original cannot re-fire mid-replay.  A
        second crash during recovery gives up: the pool resets and the
        *original* crash propagates (chained).
        """
        old_proc, old_conn = self._workers[host]
        if old_proc.is_alive():  # recv-timeout crash: worker hung, not dead
            old_proc.terminate()  # (and not to be waited on at "stop")
        if not self._recovery:
            self.close()
            raise crash
        old_conn.close()
        old_proc.join(timeout=1)
        self._workers[host] = self._spawn(host)
        _proc, conn = self._workers[host]
        try:
            for entry in (_DISARM, *self._journal[host]):
                conn.send_bytes(entry)
                if self._recv_reply(host, block, "replay")[0] == "error":
                    raise crash  # the replay diverged: give up
            conn.send_bytes(frame)
            reply = self._recv_reply(host, block, what)
        except WorkerCrash:
            self.close()
            raise crash from None
        self.recoveries += 1
        return reply

    def on_hosts(self, p: int, what: str, command: Callable[[range], tuple]) -> List[Any]:
        """Send ``command(block)`` to each host of a ``p``-rank machine as
        one frame, every frame pickled before the first is sent (so none
        runs if one will not pickle); one reply per host, in host order."""
        blocks = self.blocks(p)
        messages = [command(b) for b in blocks]
        frames = [_frame(msg) for msg in messages]
        self._ensure_workers(len(blocks))
        for (_proc, conn), frame in zip(self._workers, frames):
            try:
                conn.send_bytes(frame)
            except (BrokenPipeError, ConnectionResetError):
                # The worker on the other end is gone: keep feeding the
                # live hosts; the reply loop below finds its pipe closed
                # and recovers (or gives up) in host order.
                continue
        # Journal only state-bearing commands, and only where they
        # succeeded: replay reconstructs state, and failed phases are not
        # re-raised into a recovering worker.
        journaled = self._recovery and messages[0][0] in ("run_block", "evict")
        replies: List[Any] = []
        failure: tuple | None = None
        for host, block in enumerate(blocks):
            try:
                reply = self._recv_reply(host, block, what)
            except WorkerCrash as crash:
                # _recover raises the crash (after a pool reset) when
                # recovery is off or fails; otherwise the host is rebuilt
                # and this is its reply to the re-sent frame.
                reply = self._recover(host, block, frames[host], what, crash)
            if reply[0] == "error":
                if failure is None:
                    failure = (block, reply[1], reply[2])
            elif journaled:
                self._journal[host].append(frames[host])
            replies.append(reply[1])
        if failure is not None:
            block, exc, tb = failure
            if isinstance(exc, Exception):
                raise exc
            # A worker-raised BaseException (SystemExit, KeyboardInterrupt)
            # must not masquerade as a driver-side one — wrap it with its
            # ranks/command context instead.
            raise WorkerError(
                f"{_named(block)} raised {type(exc).__name__} during {what!r}\n{tb}"
            ) from exc
        if journaled and any(len(self._journal[h]) > JOURNAL_TAIL for h in range(len(blocks))):
            self._snapshot(p)
        return replies

    def _snapshot(self, p: int) -> None:
        """Fold every host's journal into one ``restore`` frame of its worker's pickled store."""
        stores = self.on_hosts(p, "snapshot", lambda b: ("snapshot", b))
        for host, (block, store) in enumerate(zip(self.blocks(p), stores)):
            self._journal[host] = [_frame(("restore", block, store))]

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
                conn.send_bytes(_STOP)
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
