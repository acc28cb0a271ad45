"""The micro-batching daemon core: one serve loop.

One :class:`QueryService` wraps one tree (the static
:class:`~repro.dist.DistributedRangeTree` or the dynamized
:class:`~repro.dist.DynamicDistributedRangeTree` — anything with
``run(batch) -> ResultSet``).  Clients hand it *single* queries; the
service answers them through shared engine passes:

* :meth:`QueryService.submit` validates the query (so a malformed
  request fails its own caller, never a batch) and enqueues it with a
  fresh future — the ``await``-able in-process client API the TCP
  front-end (:mod:`repro.serve.server`) is also built on.
* The **serve loop** is one task.  Whenever no pass runs it takes the
  whole backlog — every queued request, at most ``max_batch`` of them
  — as the next batch: a request on an idle service is a batch at
  once, and requests that arrive during a pass wait in the queue and
  ride the next one together.  It drops cancelled and expired
  requests, runs the rest as one ``tree.run`` pass on a single worker
  thread (``run_in_executor``, so the event loop stays live for
  submissions, deadlines and the wire) and answers them.  The batch
  is closed by ``size`` (it reached ``max_batch``), ``idle`` (the
  backlog was smaller) or ``drain`` (shutdown).
* Demultiplexing: each answer lands in its client's future as a
  :class:`ServeResponse` tagging queue latency (submit → execution
  start) and exec latency (the shared pass), plus the batch size and
  sequence number the query rode in.  Cancelled futures (client
  disconnects) are skipped without poisoning the rest of the batch.

``aclose()`` drains gracefully: the close sentinel queues behind every
accepted submission, so all in-flight work is answered before shutdown
completes.

Graceful degradation (the overload/fault story):

* **Admission control** — at most ``max_inflight`` queries may be
  submitted-and-unanswered at once; a submission past the cap raises a
  structured :class:`~repro.errors.Overloaded` immediately (shed, not
  queued), so the backlog is bounded even under unbounded offered load.
  The cap is always on — the default is a high backstop; tune it down
  to the service's real capacity for deliberate load shedding.
* **Deadlines** — a query may carry ``deadline_ms``: a loop timer
  answers it with :class:`~repro.errors.DeadlineExceeded` at the
  deadline, even behind a long pass (its late answer, if its pass was
  already running, is discarded).  A query expired when its batch is
  taken is never executed.
* **Poisoned-batch isolation** — an exception in a pass, planning
  included, fails only the batch that raised: the serve loop *bisects*
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

#: Sentinel that closes the request queue on shutdown.
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
    """The micro-batching knob.

    ``max_batch`` bounds the batch size (the throughput lever);
    ``max_batch=1`` disables coalescing — the batch-size-1 baseline.
    No batch waits for a timer: the serve loop takes the backlog the
    moment no pass runs.  ``max_wait_ms`` has no effect; it is kept,
    and validated, only so existing callers that pass it still build.
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
    batch's engine pass: the wait behind the pass that was running, zero
    but for the loop's own turns on an idle service; ``exec_ms``
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
    (the shared estimator); ``flushes`` counts every batch taken by
    cause (``size`` / ``idle`` / ``drain``) including batches that
    turned out empty after cancellations and expiries, while
    ``batches`` counts only executed ones.  ``batch_log`` keeps one
    entry per executed batch, the last :data:`BATCH_LOG_LEN` of them
    (cause, size, exec start/end timestamps on the loop clock).
    ``cancelled`` counts futures their clients cancelled, and
    ``deadline_expired`` queries a deadline answered.
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
        self.flushes = {"size": 0, "idle": 0, "drain": 0}
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


class QueryService:
    """A long-running micro-batching daemon over one tree.

    Use as an async context manager (``async with QueryService(tree)``)
    or call :meth:`start` / :meth:`aclose` explicitly.  The service does
    not own the tree: closing the service leaves the tree usable.

    Thread model: batching, deadlines and answers run on the event
    loop; engine passes run one at a time on a single worker thread, so
    the tree sees strictly sequential batches (backends and metrics
    need no locking).
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
        self._pool: ThreadPoolExecutor | None = None
        self._task: asyncio.Task | None = None
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
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._task = asyncio.ensure_future(self._serve())
        return self

    async def aclose(self) -> None:
        """Drain in-flight work, then stop the serve loop.

        Every submission accepted before this call resolves before it
        returns: the close sentinel queues *behind* pending requests, so
        the loop answers them (the last batch as a ``drain``) first.
        """
        if self._loop is None or self._closed:
            return
        self._closing = True
        self._requests.put_nowait(_CLOSE)
        await self._task
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
        ``default_deadline_ms``) bounds the query's total latency: at
        the deadline a loop timer answers it with
        :class:`~repro.errors.DeadlineExceeded`.  Cancelling the
        returned future withdraws the query: while queued it is dropped
        from its batch, mid-pass its slot is computed but the answer is
        discarded.
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
        loop = self._loop
        now = loop.time()
        future = loop.create_future()
        self._inflight += 1
        self.metrics.note_inflight(self._inflight)
        future.add_done_callback(self._release_slot)
        expiry = None if deadline_ms is None else now + deadline_ms / 1000.0
        req = _Request(query, future, now, next(self._qids), expiry, deadline_ms)
        if expiry is not None:
            # The handle goes with the answer: pending timers are bounded
            # by the queries in flight, not by deadline x rate.
            timer = loop.call_at(expiry, self._expire, req)
            future.add_done_callback(lambda _: timer.cancel())
        self._requests.put_nowait(req)
        return future

    def _release_slot(self, _future: asyncio.Future) -> None:
        self._inflight -= 1

    def _expire(self, req: _Request) -> None:
        """Answer ``req`` with DeadlineExceeded (its deadline passed)."""
        if not req.future.done():
            self.metrics.deadline_expired += 1
            waited_ms = (self._loop.time() - req.t_submit) * 1000.0
            req.future.set_exception(DeadlineExceeded(req.deadline_ms, waited_ms))

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
    # the serve loop: backlog -> one engine pass -> demux
    # ------------------------------------------------------------------
    async def _serve(self) -> None:
        requests = self._requests
        max_batch = self.policy.max_batch
        while True:
            # No pass runs: the whole backlog (up to max_batch) is the
            # next batch; what arrives during its pass rides the next.
            taken = [await requests.get()]
            while len(taken) < max_batch and not requests.empty():
                taken.append(requests.get_nowait())
            closing = taken[-1] is _CLOSE  # nothing queues behind it
            if closing:
                taken.pop()
            if taken:
                cause = (
                    "drain" if closing
                    else "size" if len(taken) >= max_batch
                    else "idle"
                )
                await self._serve_batch(taken, cause)
            if closing:
                return

    async def _serve_batch(self, taken: List[_Request], cause: str) -> None:
        """Admit ``taken`` (drop dead futures, expire late queries), run
        the rest as one pass on the worker thread and answer them."""
        loop = self._loop
        metrics = self.metrics
        metrics.flushes[cause] += 1
        now = loop.time()
        live = []
        for req in taken:
            if req.future.done():  # cancelled, or answered by its deadline
                metrics.cancelled += req.future.cancelled()
            elif req.expiry is not None and now >= req.expiry:
                self._expire(req)  # due, its timer not yet run: never planned
            else:
                live.append(req)
        if not live:
            return  # the whole batch was withdrawn: execute nothing
        batch = QueryBatch([r.query for r in live])
        log = {
            "seq": next(self._seq),
            "cause": cause,
            "size": len(live),
            "t_exec_start": loop.time(),
            "t_exec_end": None,
        }
        metrics.record_batch(log)
        try:
            rs = await loop.run_in_executor(self._pool, self._run_batch, batch)
        except Exception:
            # Poisoned batch: bisect to tag the offending queries and
            # re-answer the innocent ones; the daemon loop survives.
            await self._demux_failed_batch(live, log)
            return
        self._answer(log, zip(live, rs.values()), loop.time())

    def _run_batch(self, batch: QueryBatch):
        """The worker-thread body: one shared engine pass for the batch."""
        from ..faults import maybe_inject

        maybe_inject("serve.execute")
        return self.tree.run(batch)

    def _bisect_batch(self, requests: List[_Request]):
        """Worker-thread body: isolate poisoned queries in a failed batch.

        Recursively halves the batch and re-runs each half through
        ``tree.run`` — the engine is deterministic, so surviving queries
        get exactly the answers the whole batch would have produced —
        until each failure is a singleton, which is the poisoned query.
        Returns ``[(request, ("ok", value) | ("err", exc)), ...]``.
        """
        try:
            rs = self.tree.run(QueryBatch([r.query for r in requests]))
        except Exception as exc:
            if len(requests) == 1:
                return [(requests[0], ("err", exc))]
            mid = len(requests) // 2
            return self._bisect_batch(requests[:mid]) + self._bisect_batch(
                requests[mid:]
            )
        return [(r, ("ok", v)) for r, v in zip(requests, rs.values())]

    def _answer(self, log: dict, answers, t_end: float) -> None:
        """Deliver an executed batch's ``(request, value)`` answers.

        A query counts as served — and gives latency samples — only when
        its answer is set: one cancelled mid-pass is counted cancelled,
        and one its deadline already answered keeps that typed error.
        """
        log["t_exec_end"] = t_end
        t_start = log["t_exec_start"]
        exec_ms = (t_end - t_start) * 1000.0
        for req, value in answers:
            if req.future.done():  # withdrawn mid-pass: discard
                self.metrics.cancelled += req.future.cancelled()
                continue
            queue_ms = (t_start - req.t_submit) * 1000.0
            self.metrics.record_query(queue_ms, exec_ms)
            req.future.set_result(
                ServeResponse(value, queue_ms, exec_ms, log["size"], log["seq"])
            )

    async def _demux_failed_batch(self, requests: List[_Request], log: dict) -> None:
        """Answer a batch whose shared pass raised, via bisection."""
        loop = self._loop
        self.metrics.bisect_passes += 1
        try:
            outcomes = await loop.run_in_executor(
                self._pool, self._bisect_batch, requests
            )
        except Exception as exc:
            # The bisection itself failed (non-deterministic engine,
            # broken tree): fail the whole batch, keep the daemon alive.
            self.metrics.errors += len(requests)
            log["t_exec_end"] = loop.time()
            failure = ServeError(f"batch execution failed: {exc}")
            for req in requests:
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
        self._answer(log, answers, loop.time())

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
