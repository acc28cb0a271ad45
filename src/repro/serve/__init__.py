"""``repro.serve`` — the query-service daemon with adaptive micro-batching.

The paper's performance story (Theorems 3-5) prices a *batch* of m
queries at one Search pass with O(1) communication rounds, and the
query layer (:mod:`repro.query`) already makes a heterogeneous
:class:`~repro.query.QueryBatch` cost exactly that.  This package turns
**concurrent independent clients** into those batches:

* :class:`QueryService` — a long-running asyncio daemon wrapping one
  tree (static or dynamized).  Single queries arrive via the
  ``await``-able in-process API (:meth:`QueryService.submit`) or over
  TCP; one **serve loop** takes the whole backlog (at most
  ``max_batch`` queries) as the next batch whenever no pass runs, runs
  it through ``tree.run`` and demultiplexes the
  :class:`~repro.query.ResultSet` back to each client future, tagging
  every response with queue/exec latency.
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the
  newline-delimited-JSON TCP transport (:mod:`repro.serve.protocol`).
* :mod:`repro.serve.loadgen` — open-loop Poisson and closed-loop client
  populations driving either transport, emitting qps / p50 / p99 rows
  (``repro loadgen``).

Everything here is a *front-end*: answers are produced by the ordinary
engine pass, so they are bit-identical to handing the same queries to
``tree.run`` directly — asserted by the serve test suite.
"""

from .client import ServeClient
from .loadgen import make_serve_queries, run_loadgen, run_loadgen_remote
from .protocol import (
    error_from_obj,
    error_to_obj,
    query_from_request,
    request_to_obj,
)
from .server import start_tcp_server
from .service import (
    DEFAULT_MAX_INFLIGHT,
    FlushPolicy,
    QueryService,
    ServeMetrics,
    ServeResponse,
)

__all__ = [
    "DEFAULT_MAX_INFLIGHT",
    "FlushPolicy",
    "QueryService",
    "ServeMetrics",
    "ServeResponse",
    "ServeClient",
    "start_tcp_server",
    "query_from_request",
    "request_to_obj",
    "error_to_obj",
    "error_from_obj",
    "make_serve_queries",
    "run_loadgen",
    "run_loadgen_remote",
]
