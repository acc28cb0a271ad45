"""Load generation against the serve daemon.

Two client populations, both seeded and deterministic in *what* they
ask (wall-clock timing is the measurement, not the input):

* **closed-loop** — ``clients`` workers, each holding one query in
  flight: submit, await, submit the next.  Offered load adapts to
  service speed; this is the classic "population of users" shape and
  the one the throughput comparison uses (the serve loop takes the c
  concurrent submissions as one batch).
* **open-loop Poisson** — arrivals at seeded exponential inter-arrival
  gaps targeting ``rate_qps``, submitted regardless of completions (no
  coordinated omission); latency under a fixed offered load.

:func:`run_loadgen` orchestrates a whole measurement: build the
service over a caller-supplied tree, drive it over the in-process or
TCP transport, and emit one flat row — qps, shared-estimator latency
percentiles (:func:`repro._util.percentiles`), batch shape, and an
``answers_match_direct`` bit cross-checking every response against one
direct ``tree.run`` of the same queries.

Overload runs are first-class: ``max_inflight`` / ``deadline_ms`` /
``retries`` push the service into its graceful-degradation regime, and
every row records the error budget it paid — ``errors`` /
``error_rate`` / per-type ``error_types`` counts — with latency
percentiles and the direct cross-check computed over the *successful*
queries only (a shed query has no answer to compare).
"""

from __future__ import annotations

import asyncio
import random
from typing import Any, Callable, List

from .._util import percentiles
from ..errors import Overloaded, ServeError
from ..query.descriptors import Query, QueryBatch, aggregate, count, report
from ..query.result import _json_safe
from ..workloads import make_queries
from .client import ServeClient, backoff_s
from .server import start_tcp_server
from .service import FlushPolicy, QueryService

__all__ = ["make_serve_queries", "run_loadgen", "run_loadgen_remote"]

#: The mixed-mode cycle a loadgen client population issues.
_MODE_CYCLE = (count, lambda b: report(b, limit=16), aggregate)


def make_serve_queries(
    m: int, d: int, seed: int = 0, selectivity: float = 0.02
) -> List[Query]:
    """``m`` mixed-mode single queries over the selectivity workload."""
    boxes = make_queries(
        "selectivity", m, d, seed=seed, selectivity=selectivity
    )
    return [_MODE_CYCLE[i % len(_MODE_CYCLE)](b) for i, b in enumerate(boxes)]


async def _drive(
    submit: Callable[[Query], Any],
    queries: List[Query],
    arrival: str,
    clients: int,
    rate_qps: float | None,
    seed: int,
) -> "tuple[list, list, list, float]":
    """Issue every query; returns (values, latencies_ms, errors, wall_s).

    ``submit`` is an async callable returning the answer value — the
    transport adapter.  Latency here is the *client-observed* round
    trip, measured on the loop clock per query.  A query answered with
    a :class:`~repro.errors.ServeError` (shed, deadline, poisoned) is
    recorded by exception type name in ``errors[i]`` — its value stays
    ``None`` and its latency slot is meaningless; errors never abort
    the run.
    """
    loop = asyncio.get_running_loop()
    values: List[Any] = [None] * len(queries)
    latencies: List[float] = [0.0] * len(queries)
    errors: List["str | None"] = [None] * len(queries)

    async def one(i: int) -> None:
        t0 = loop.time()
        try:
            values[i] = await submit(queries[i])
        except ServeError as exc:
            errors[i] = type(exc).__name__
            return
        latencies[i] = (loop.time() - t0) * 1000.0

    t_start = loop.time()
    if arrival == "closed":
        async def worker(idxs: List[int]) -> None:
            for i in idxs:
                await one(i)

        await asyncio.gather(
            *(worker(list(range(c, len(queries), clients)))
              for c in range(clients))
        )
    elif arrival == "poisson":
        if not rate_qps or rate_qps <= 0:
            raise ServeError("poisson arrivals need rate_qps > 0")
        rng = random.Random(seed)
        at = 0.0
        tasks = []
        for i in range(len(queries)):
            at += rng.expovariate(rate_qps)

            async def arrive(i=i, at=at) -> None:
                delay = (t_start + at) - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                await one(i)

            tasks.append(asyncio.ensure_future(arrive()))
        await asyncio.gather(*tasks)
    else:
        raise ServeError(
            f"unknown arrival process {arrival!r} (closed | poisson)"
        )
    return values, latencies, errors, loop.time() - t_start


def _error_stats(errors: List["str | None"]) -> "tuple[int, dict]":
    """Count failed queries and bucket them by exception type name."""
    types: dict = {}
    for name in errors:
        if name is not None:
            types[name] = types.get(name, 0) + 1
    return sum(types.values()), types


async def _run_inproc(service: QueryService, queries, arrival, clients,
                      rate_qps, seed, deadline_ms=None, retries=0):
    # ServeClient's Overloaded backoff on the in-process transport, so
    # `retries` means the same thing on both.
    rng = random.Random(seed ^ 0x5E12E)

    async def submit(q: Query):
        attempt = 0
        while True:
            try:
                return (
                    await service.submit(q, deadline_ms=deadline_ms)
                ).value
            except Overloaded:
                if attempt >= retries:
                    raise
                await asyncio.sleep(backoff_s(attempt, rng))
                attempt += 1

    async with service:
        return await _drive(submit, queries, arrival, clients, rate_qps, seed)


async def _drive_tcp(host: str, port: int, queries, arrival, clients,
                     rate_qps, seed, deadline_ms=None, retries=0):
    """:func:`_drive` through a pool of ``clients`` TCP connections to
    ``host:port``, taking the queries in turn."""
    conns = [
        await ServeClient.connect(host, port, retries=retries, retry_seed=seed + c)
        for c in range(clients)
    ]
    try:
        turn = iter(range(len(queries)))

        async def submit(q: Query):
            return await conns[next(turn) % clients].value(q, deadline_ms=deadline_ms)

        return await _drive(submit, queries, arrival, clients, rate_qps, seed)
    finally:
        for conn in conns:
            await conn.aclose()


async def _run_tcp(service: QueryService, queries, arrival, clients,
                   rate_qps, seed, deadline_ms=None, retries=0):
    async with service:
        server = await start_tcp_server(service, "127.0.0.1", 0)
        try:
            return await _drive_tcp(
                "127.0.0.1", server.sockets[0].getsockname()[1], queries, arrival,
                clients, rate_qps, seed, deadline_ms, retries,
            )
        finally:
            server.close()
            await server.wait_closed()


def run_loadgen_remote(
    host: str,
    port: int,
    *,
    m: int = 256,
    d: int = 2,
    seed: int = 0,
    clients: int = 4,
    arrival: str = "closed",
    rate_qps: float | None = None,
    deadline_ms: float | None = None,
    retries: int = 0,
) -> dict:
    """Drive an *external* daemon (``repro-range-search serve``) over TCP.

    Unlike :func:`run_loadgen` there is no tree in hand, so no direct
    cross-check and no service-side batch metrics — just the
    client-observed figures.  The row's keys: ``transport``,
    ``arrival``, ``clients``, ``m``, ``qps``, ``p50_ms``, ``p95_ms``,
    ``p99_ms`` (successes only), ``errors``, ``error_rate``,
    ``error_types`` (per-type counts) and ``answers_match_direct``
    (``None``), plus ``rate_qps``, ``deadline_ms`` and ``retries`` when
    set.
    """
    queries = make_serve_queries(m, d, seed=seed)
    clients = max(1, int(clients))
    _values, latencies, errors, wall_s = asyncio.run(
        _drive_tcp(host, port, queries, arrival, clients, rate_qps, seed, deadline_ms, retries)
    )
    n_errors, error_types = _error_stats(errors)
    ok_latencies = [
        lat for lat, err in zip(latencies, errors) if err is None
    ]
    pct = percentiles(ok_latencies or [0.0], (50, 95, 99))
    row = {
        "transport": "tcp",
        "arrival": arrival,
        "clients": clients,
        "m": len(queries),
        "qps": round(len(queries) / wall_s, 1) if wall_s > 0 else None,
        "p50_ms": round(pct["p50"], 4),
        "p95_ms": round(pct["p95"], 4),
        "p99_ms": round(pct["p99"], 4),
        "errors": n_errors,
        "error_rate": round(n_errors / len(queries), 4) if queries else 0.0,
        "error_types": error_types,
        "answers_match_direct": None,
    }
    if rate_qps is not None:
        row["rate_qps"] = rate_qps
    if deadline_ms is not None:
        row["deadline_ms"] = deadline_ms
    if retries:
        row["retries"] = retries
    return row


def run_loadgen(
    tree,
    queries: "List[Query] | None" = None,
    *,
    m: int = 256,
    seed: int = 0,
    clients: int = 4,
    arrival: str = "closed",
    rate_qps: float | None = None,
    max_batch: int = 1024,
    transport: str = "inproc",
    max_inflight: int | None = None,
    deadline_ms: float | None = None,
    retries: int = 0,
) -> dict:
    """One complete loadgen measurement; returns a flat row dict.

    The caller owns ``tree`` (it stays open); the service and any TCP
    plumbing live only for the measurement.  The same queries also run
    as one direct ``tree.run`` batch and every *successfully served*
    answer is compared — bit-identical for the
    in-process transport, JSON-coerced for TCP (the wire's
    representation); a shed/expired query contributes to the error
    counts, never a wrong answer.

    ``max_inflight`` caps service admission (overload runs),
    ``deadline_ms`` rides on every query, and ``retries`` turns on the
    client-side Overloaded backoff (both transports).
    """
    if queries is None:
        queries = make_serve_queries(m, tree.dim, seed=seed)
    queries = list(queries)
    clients = max(1, int(clients))
    if transport not in ("inproc", "tcp"):
        raise ServeError(f"unknown transport {transport!r} (inproc | tcp)")

    expected = tree.run(QueryBatch(queries)).values()

    service = QueryService(
        tree,
        FlushPolicy(max_batch=max_batch),
        max_inflight=max_inflight,
    )
    runner = _run_tcp if transport == "tcp" else _run_inproc
    values, latencies, errors, wall_s = asyncio.run(
        runner(
            service, queries, arrival, clients, rate_qps, seed,
            deadline_ms, retries,
        )
    )

    n_errors, error_types = _error_stats(errors)
    # Compare only the queries that got answers: errors are counted,
    # not compared (there is nothing to compare them against).
    pairs = [
        (exp, got)
        for exp, got, err in zip(expected, values, errors)
        if err is None
    ]
    if transport == "tcp":
        answers_match = all(
            _json_safe(exp) == got for exp, got in pairs
        )
    else:
        answers_match = all(exp == got for exp, got in pairs)

    ok_latencies = [
        lat for lat, err in zip(latencies, errors) if err is None
    ]
    pct = percentiles(ok_latencies or [0.0], (50, 95, 99))
    sm = service.metrics
    row = {
        "transport": transport,
        "arrival": arrival,
        "clients": clients,
        "m": len(queries),
        "max_batch": max_batch,
        "qps": round(len(queries) / wall_s, 1) if wall_s > 0 else None,
        "p50_ms": round(pct["p50"], 4),
        "p95_ms": round(pct["p95"], 4),
        "p99_ms": round(pct["p99"], 4),
        "mean_batch_size": round(sm.mean_batch_size, 2),
        "batches": sm.batches,
        "flushes": dict(sm.flushes),
        "errors": n_errors,
        "error_rate": round(n_errors / len(queries), 4) if queries else 0.0,
        "error_types": error_types,
        "serve_metrics": sm.summary(),
        "answers_match_direct": answers_match,
    }
    if rate_qps is not None:
        row["rate_qps"] = rate_qps
    if max_inflight is not None:
        row["max_inflight"] = max_inflight
    if deadline_ms is not None:
        row["deadline_ms"] = deadline_ms
    if retries:
        row["retries"] = retries
    return row
