"""The micro-batching daemon core: collector → executor pipeline.

One :class:`QueryService` wraps one tree (the static
:class:`~repro.dist.DistributedRangeTree` or the dynamized
:class:`~repro.dist.DynamicDistributedRangeTree` — anything with
``run(batch) -> ResultSet``).  Clients hand it *single* queries; the
service answers them through shared engine passes:

* :meth:`QueryService.submit` validates the query (so a malformed
  request fails its own caller, never a batch) and enqueues it with a
  fresh future — the ``await``-able in-process client API the TCP
  front-end (:mod:`repro.serve.server`) is also built on.
* The **collector** task coalesces submissions under the
  :class:`FlushPolicy`.  A window closes on the first of three causes:
  it holds ``max_batch`` queries (``size``); the executor is idle — no
  pass runs and no admitted batch waits — so nothing can gain by
  waiting (``idle``); or a pass is running and the window's *first*
  query has waited ``max_wait_ms`` (``timer``).  Before the idle check
  the collector takes every request already queued, so a burst that
  arrived together is one batch.  A lone query on an idle service
  therefore pays no batching wait.  At flush time the collector runs stage-1
  admission — drop already-cancelled futures and expired queries,
  assemble the :class:`~repro.query.QueryBatch` — and hands the batch
  to the executor queue.
* The **executor** task pops admitted batches and runs each through
  ``tree.run`` on a single worker thread (``run_in_executor``), so the
  event loop — and with it the collector assembling batch K+1 — stays
  live while batch K's search pass folds.  The executor queue holds at
  most one admitted batch: exactly two batches are ever in flight (one
  queued, one executing), which is the two-stage pipeline and its
  backpressure in one mechanism.
* Demultiplexing: each answer lands in its client's future as a
  :class:`ServeResponse` tagging queue latency (submit → execution
  start) and exec latency (the shared pass), plus the batch size and
  sequence number the query rode in.  Cancelled futures (client
  disconnects) are skipped without poisoning the rest of the batch.

``aclose()`` drains gracefully: the close sentinel travels the same
queues behind every accepted submission, so all in-flight work is
answered before shutdown completes.

Graceful degradation (the overload/fault story):

* **Admission control** — at most ``max_inflight`` queries may be
  submitted-and-unanswered at once; a submission past the cap raises a
  structured :class:`~repro.errors.Overloaded` immediately (shed, not
  queued), so the backlog is bounded even under unbounded offered load.
  The cap is always on — the default is a high backstop; tune it down
  to the service's real capacity for deliberate load shedding.
* **Deadlines** — a query may carry ``deadline_ms``; if it expires
  before its batch is admitted it is answered with
  :class:`~repro.errors.DeadlineExceeded` and never executed, and if
  it expires while its batch waits for the worker thread the (late)
  answer is discarded in favor of the same typed error.
* **Poisoned-batch isolation** — an exception in a pass, planning
  included, fails only the batch that raised: the executor *bisects*
  the batch to isolate the offending query, re-running the innocent
  halves (deterministic engine ⇒ identical answers) and tagging the
  culprit with :class:`~repro.errors.QueryFailed` (its service-assigned
  query id).
  The daemon loop survives.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import numbers
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Deque, List

from ..cgm.metrics import LatencyStats
from ..errors import DeadlineExceeded, Overloaded, QueryFailed, ServeError
from ..query.descriptors import Query, QueryBatch
from ..query.modes import get_mode

__all__ = ["FlushPolicy", "ServeResponse", "ServeMetrics", "QueryService"]

#: Backstop admission cap: even a service nobody configured sheds rather
#: than queueing without bound (satellite of the fault-tolerance layer).
DEFAULT_MAX_INFLIGHT = 8192

#: How many executed batches ``ServeMetrics.batch_log`` remembers: a
#: daemon's memory must not grow with its uptime.
BATCH_LOG_LEN = 128

#: Sentinel that travels the request and executor queues on shutdown.
_CLOSE = object()


def _check_ms(name: str, value: float, low: "float | None" = None) -> None:
    """A timing must be a finite number of milliseconds, above 0 (or at
    least ``low``): NaN passes every comparison, so it is named here."""
    ok = isinstance(value, numbers.Real) and math.isfinite(value)
    if not (ok and (value > 0 if low is None else value >= low)):
        bound = "> 0" if low is None else f">= {low:g}"
        raise ServeError(f"{name} must be a finite number {bound}, got {value!r}")


def _check_count(name: str, value: int) -> None:
    """A size must be an integer >= 1: NaN, inf and 2.5 are not sizes."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ServeError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class FlushPolicy:
    """The micro-batching knobs.

    ``max_batch`` bounds the batch size (the throughput lever);
    ``max_batch=1`` disables coalescing — the batch-size-1 baseline.
    ``max_wait_ms`` bounds a window's time while a pass is running (the
    latency a client pays for batching behind a busy executor).  An
    idle executor closes the window at once, whatever ``max_wait_ms``.
    """

    max_wait_ms: float = 2.0
    max_batch: int = 1024

    def __post_init__(self) -> None:
        _check_count("max_batch", self.max_batch)
        _check_ms("max_wait_ms", self.max_wait_ms, 0.0)


@dataclass(frozen=True)
class ServeResponse:
    """One answered query, as the client sees it.

    ``queue_ms`` is the time from submission to the start of the
    batch's engine pass: window wait + executor-queue wait, both zero
    but for the loop's own turns when the executor was idle; ``exec_ms``
    is that shared pass's wall-clock; ``batch_size``/``batch_seq``
    identify the batch the query rode in.
    """

    value: Any
    queue_ms: float
    exec_ms: float
    batch_size: int
    batch_seq: int


class ServeMetrics:
    """What the daemon observed: per-query latency, batch shape, causes.

    Latency percentiles ride :class:`~repro.cgm.metrics.LatencyStats`
    (the shared estimator); ``flushes`` counts every window close by
    cause (``size`` / ``idle`` / ``timer`` / ``drain``) including windows that
    turned out empty after cancellations, while ``batches`` counts only
    executed ones.  ``batch_log`` keeps one entry per executed batch,
    the last :data:`BATCH_LOG_LEN` of them (cause, size, flush/exec
    timestamps on the loop clock).
    """

    def __init__(self) -> None:
        self.queue_latency = LatencyStats("queue")
        self.exec_latency = LatencyStats("exec")
        self.total_latency = LatencyStats("total")
        self.queries = 0
        self.batches = 0
        self.batched_queries = 0
        self.cancelled = 0
        self.errors = 0
        self.shed = 0
        self.deadline_expired = 0
        self.query_failures = 0
        self.bisect_passes = 0
        self.peak_inflight = 0
        self.flushes = {"size": 0, "idle": 0, "timer": 0, "drain": 0}
        self.batch_log: Deque[dict] = deque(maxlen=BATCH_LOG_LEN)

    def record_query(self, queue_ms: float, exec_ms: float) -> None:
        self.queries += 1
        self.queue_latency.record(queue_ms)
        self.exec_latency.record(exec_ms)
        self.total_latency.record(queue_ms + exec_ms)

    def record_batch(self, log: dict) -> None:
        self.batches += 1
        self.batched_queries += log["size"]
        self.batch_log.append(log)

    def note_inflight(self, depth: int) -> None:
        if depth > self.peak_inflight:
            self.peak_inflight = depth

    @property
    def mean_batch_size(self) -> float:
        return self.batched_queries / self.batches if self.batches else 0.0

    def summary(self) -> dict:
        """Flat dict for the CLI / loadgen reports (JSON-safe)."""
        return {
            "queries": self.queries,
            "batches": self.batches,
            "cancelled": self.cancelled,
            "errors": self.errors,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "query_failures": self.query_failures,
            "bisect_passes": self.bisect_passes,
            "peak_inflight": self.peak_inflight,
            "flushes": dict(self.flushes),
            "mean_batch_size": round(self.mean_batch_size, 2),
            "queue": self.queue_latency.summary(),
            "exec": self.exec_latency.summary(),
            "total": self.total_latency.summary(),
        }


class _Request:
    """One submitted query awaiting its batch.

    ``qid`` is the service-assigned query id (what a
    :class:`~repro.errors.QueryFailed` names); ``expiry`` is the
    loop-clock instant the query's deadline passes (``None`` = no
    deadline).
    """

    __slots__ = ("query", "future", "t_submit", "qid", "expiry", "deadline_ms")

    def __init__(
        self,
        query: Query,
        future: asyncio.Future,
        t_submit: float,
        qid: int,
        expiry: "float | None" = None,
        deadline_ms: "float | None" = None,
    ):
        self.query = query
        self.future = future
        self.t_submit = t_submit
        self.qid = qid
        self.expiry = expiry
        self.deadline_ms = deadline_ms


class _AdmittedBatch:
    """Stage-1 output: an admitted batch, ready to execute."""

    __slots__ = ("requests", "batch", "seq", "log")

    def __init__(self, requests, batch, seq, log) -> None:
        self.requests = requests
        self.batch = batch
        self.seq = seq
        self.log = log


class QueryService:
    """A long-running micro-batching daemon over one tree.

    Use as an async context manager (``async with QueryService(tree)``)
    or call :meth:`start` / :meth:`aclose` explicitly.  The service does
    not own the tree: closing the service leaves the tree usable.

    Thread model: all coalescing runs on the event loop; engine passes
    run one at a time on a single worker thread, so the tree sees
    strictly sequential batches (backends and metrics need no locking).
    """

    def __init__(
        self,
        tree,
        policy: FlushPolicy | None = None,
        *,
        max_inflight: int | None = None,
        default_deadline_ms: float | None = None,
    ) -> None:
        self.tree = tree
        self.policy = policy or FlushPolicy()
        if max_inflight is None:
            max_inflight = DEFAULT_MAX_INFLIGHT
        _check_count("max_inflight", max_inflight)
        if default_deadline_ms is not None:
            _check_ms("default_deadline_ms", default_deadline_ms)
        self.max_inflight = max_inflight
        self.default_deadline_ms = default_deadline_ms
        self.metrics = ServeMetrics()
        self._inflight = 0
        self._seq = itertools.count()
        self._qids = itertools.count()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._requests: asyncio.Queue | None = None
        self._exec_queue: asyncio.Queue | None = None
        self._idle: asyncio.Event | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._collector_task: asyncio.Task | None = None
        self._executor_task: asyncio.Task | None = None
        self._closing = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "QueryService":
        if self._loop is not None:
            raise ServeError("QueryService already started")
        self._loop = asyncio.get_running_loop()
        self._requests = asyncio.Queue()
        # maxsize=1: at most one admitted batch waits behind the one
        # executing — the pipeline depth, and the collector backpressure.
        self._exec_queue = asyncio.Queue(maxsize=1)
        # Set while no pass runs and no admitted batch waits: the
        # collector closes its window at once then.
        self._idle = asyncio.Event()
        self._idle.set()
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._collector_task = asyncio.ensure_future(self._collect())
        self._executor_task = asyncio.ensure_future(self._execute_loop())
        return self

    async def aclose(self) -> None:
        """Drain in-flight work, then stop the pipeline tasks.

        Every submission accepted before this call resolves before it
        returns: the close sentinel queues *behind* pending requests,
        the collector flushes the open window as a ``drain`` batch, and
        the executor finishes everything ahead of the sentinel.
        """
        if self._loop is None or self._closed:
            return
        self._closing = True
        await self._requests.put(_CLOSE)
        await self._collector_task
        await self._executor_task
        self._pool.shutdown(wait=True)
        self._closed = True

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.aclose()

    @property
    def running(self) -> bool:
        return self._loop is not None and not self._closing

    # ------------------------------------------------------------------
    # the in-process client API
    # ------------------------------------------------------------------
    def submit(
        self, query: Query, *, deadline_ms: float | None = None
    ) -> "asyncio.Future[ServeResponse]":
        """Enqueue one query; the future resolves to a :class:`ServeResponse`.

        Validation happens here, synchronously, so a malformed query
        raises to its own submitter and can never poison a batch other
        clients are riding.  Admission control also happens here: past
        ``max_inflight`` submitted-and-unanswered queries the submission
        is *shed* with :class:`~repro.errors.Overloaded` (nothing is
        queued).  ``deadline_ms`` (default: the service's
        ``default_deadline_ms``) bounds the query's total latency; an
        expired query is answered with
        :class:`~repro.errors.DeadlineExceeded`.  Cancelling the
        returned future withdraws the query: pre-flush it is dropped at
        admission, post-flush its slot in the pass is computed but the
        answer is discarded.
        """
        if not self.running:
            raise ServeError("QueryService is not running")
        if not isinstance(query, Query):
            raise ServeError(
                f"submit takes a repro.query.Query descriptor, got "
                f"{type(query).__name__}"
            )
        if self._inflight >= self.max_inflight:
            self.metrics.shed += 1
            raise Overloaded(self._inflight, self.max_inflight)
        dim = self.tree.dim
        if query.box.dim != dim:
            raise ServeError(
                f"query box has dimension {query.box.dim}, tree is {dim}-d"
            )
        get_mode(query.mode).validate(query, dim)
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        else:
            _check_ms("deadline_ms", deadline_ms)
        now = self._loop.time()
        future = self._loop.create_future()
        self._inflight += 1
        self.metrics.note_inflight(self._inflight)
        future.add_done_callback(self._release_slot)
        self._requests.put_nowait(
            _Request(
                query,
                future,
                now,
                next(self._qids),
                expiry=None if deadline_ms is None else now + deadline_ms / 1000.0,
                deadline_ms=deadline_ms,
            )
        )
        return future

    def _release_slot(self, _future: asyncio.Future) -> None:
        self._inflight -= 1

    @property
    def inflight(self) -> int:
        """Queries submitted and not yet answered (the admission gauge)."""
        return self._inflight

    async def query(
        self, query: Query, *, deadline_ms: float | None = None
    ) -> ServeResponse:
        """Submit and await one query (convenience for tests/examples)."""
        return await self.submit(query, deadline_ms=deadline_ms)

    # ------------------------------------------------------------------
    # stage 1: the collector (coalescing + admission)
    # ------------------------------------------------------------------
    async def _collect(self) -> None:
        loop = self._loop
        wait_s = self.policy.max_wait_ms / 1000.0
        max_batch = self.policy.max_batch
        idle = self._idle
        pending: List[_Request] = []
        deadline = 0.0
        get_task: asyncio.Task | None = None
        idle_task: asyncio.Task | None = None
        while True:
            # One long-lived get() task per item: a timed-out wait keeps
            # the task (and any item it later receives) for the next
            # iteration, so no submission can fall through a timeout.
            if get_task is None:
                get_task = asyncio.ensure_future(self._requests.get())
            if not pending:
                await asyncio.wait({get_task})
            elif not idle.is_set():
                # A pass is running: the window stays open until the
                # executor goes idle, a request arrives, or the timer.
                if idle_task is None or idle_task.done():
                    idle_task = asyncio.ensure_future(idle.wait())
                remaining = deadline - loop.time()
                done = ()
                if remaining > 0:
                    done, _ = await asyncio.wait(
                        {get_task, idle_task},
                        timeout=remaining,
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                if not done:
                    await self._flush(pending, "timer")
                    pending = []
                    continue
            # Take every request already here, the get() task's first:
            # a burst that arrived together stays one window.
            arrived = []
            if get_task.done():
                arrived.append(get_task.result())
                get_task = None
            while not self._requests.empty():
                arrived.append(self._requests.get_nowait())
            for item in arrived:
                if item is _CLOSE:
                    if pending:
                        await self._flush(pending, "drain")
                    for task in (get_task, idle_task):
                        if task is not None:
                            task.cancel()
                    await self._exec_queue.put(_CLOSE)
                    return
                if not pending:
                    deadline = loop.time() + wait_s
                pending.append(item)
                if len(pending) >= max_batch:
                    await self._flush(pending, "size")
                    pending = []
            if pending and idle.is_set():
                # Nothing runs and nothing is queued: no query can gain
                # by waiting, so the window closes now.
                await self._flush(pending, "idle")
                pending = []

    def _expire(self, req: _Request, now: float) -> bool:
        """Answer ``req`` with DeadlineExceeded if its deadline passed."""
        if req.expiry is None or now <= req.expiry:
            return False
        self.metrics.deadline_expired += 1
        if not req.future.done():
            req.future.set_exception(
                DeadlineExceeded(
                    req.deadline_ms, (now - req.t_submit) * 1000.0
                )
            )
        return True

    async def _flush(self, requests: List[_Request], cause: str) -> None:
        """Admit one window: drop dead futures, enqueue for exec."""
        self.metrics.flushes[cause] += 1
        live = [r for r in requests if not r.future.done()]
        self.metrics.cancelled += len(requests) - len(live)
        # Deadline check happens at admission: an expired query is
        # answered with the typed error and never enters the batch.
        now = self._loop.time()
        live = [r for r in live if not self._expire(r, now)]
        if not live:
            return  # the whole window was withdrawn: execute nothing
        batch = QueryBatch([r.query for r in live])
        seq = next(self._seq)
        log = {
            "seq": seq,
            "cause": cause,
            "size": len(live),
            "t_flush": self._loop.time(),
            "t_exec_start": None,
            "t_exec_end": None,
        }
        self.metrics.record_batch(log)
        self._idle.clear()
        await self._exec_queue.put(_AdmittedBatch(live, batch, seq, log))

    # ------------------------------------------------------------------
    # stage 2: the executor (one engine pass at a time) + demux
    # ------------------------------------------------------------------
    def _one_pass(self, batch: QueryBatch):
        """``tree.run(batch)`` on the worker thread, its steps then dropped
        from the machine's trace: the ``ResultSet`` carries its own copy,
        nothing here reads the machine's, and a daemon's must not grow
        with uptime."""
        try:
            return self.tree.run(batch)
        finally:
            self.tree.machine.metrics.reset()

    def _run_batch(self, item: _AdmittedBatch):
        """The worker-thread body: one shared engine pass for the batch."""
        from ..faults import maybe_inject

        maybe_inject("serve.execute")
        return self._one_pass(item.batch)

    def _bisect_batch(self, requests: List[_Request]):
        """Worker-thread body: isolate poisoned queries in a failed batch.

        Recursively halves the batch and re-runs each half through
        ``tree.run`` — the engine is deterministic, so surviving queries
        get exactly the answers the whole batch would have produced —
        until each failure is a singleton, which is the poisoned query.
        Returns ``[(request, ("ok", value) | ("err", exc)), ...]``.
        """
        try:
            rs = self._one_pass(QueryBatch([r.query for r in requests]))
        except Exception as exc:
            if len(requests) == 1:
                return [(requests[0], ("err", exc))]
            mid = len(requests) // 2
            return self._bisect_batch(requests[:mid]) + self._bisect_batch(
                requests[mid:]
            )
        return [(r, ("ok", v)) for r, v in zip(requests, rs.values())]

    async def _execute_loop(self) -> None:
        loop = self._loop
        while True:
            if self._exec_queue.empty():
                self._idle.set()
            item = await self._exec_queue.get()
            if item is _CLOSE:
                return
            t_start = loop.time()
            item.log["t_exec_start"] = t_start
            try:
                rs = await loop.run_in_executor(
                    self._pool, self._run_batch, item
                )
            except Exception:
                # Poisoned batch: bisect to tag the offending queries and
                # re-answer the innocent ones; the daemon loop survives.
                await self._demux_failed_batch(item, t_start)
                continue
            self._answer(item, zip(item.requests, rs.values()), t_start, loop.time())

    def _answer(self, item: _AdmittedBatch, answers, t_start: float, t_end: float) -> None:
        """Deliver an executed batch's ``(request, value)`` answers.

        A query counts as served — and gives latency samples — only when
        its answer is set: one cancelled mid-batch is counted cancelled,
        and one whose deadline passed while the batch waited for the
        worker thread gets the typed error instead of the late answer.
        """
        item.log["t_exec_end"] = t_end
        exec_ms = (t_end - t_start) * 1000.0
        for req, value in answers:
            if req.future.done():  # cancelled mid-batch: discard
                self.metrics.cancelled += 1
            elif not self._expire(req, t_start):
                queue_ms = (t_start - req.t_submit) * 1000.0
                self.metrics.record_query(queue_ms, exec_ms)
                req.future.set_result(
                    ServeResponse(value, queue_ms, exec_ms, len(item.requests), item.seq)
                )

    async def _demux_failed_batch(self, item: _AdmittedBatch, t_start) -> None:
        """Answer a batch whose shared pass raised, via bisection."""
        loop = self._loop
        self.metrics.bisect_passes += 1
        try:
            outcomes = await loop.run_in_executor(
                self._pool, self._bisect_batch, item.requests
            )
        except Exception as exc:
            # The bisection itself failed (non-deterministic engine,
            # broken tree): fail the whole batch, keep the daemon alive.
            self.metrics.errors += len(item.requests)
            item.log["t_exec_end"] = loop.time()
            failure = ServeError(f"batch execution failed: {exc}")
            for req in item.requests:
                if not req.future.done():
                    req.future.set_exception(failure)
            return
        answers = []
        for req, (kind, payload) in outcomes:
            if kind == "ok":
                answers.append((req, payload))
                continue
            self.metrics.errors += 1
            self.metrics.query_failures += 1
            if not req.future.done():
                req.future.set_exception(QueryFailed(req.qid, str(payload)))
        self._answer(item, answers, t_start, loop.time())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "closed"
            if self._closed
            else ("running" if self.running else "new")
        )
        return (
            f"QueryService({self.tree!r}, {self.policy}, {state}, "
            f"served={self.metrics.queries})"
        )
