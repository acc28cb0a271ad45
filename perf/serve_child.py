"""The serve_tcp workload's server process.

Builds the tree from a points file, runs ``QueryService`` behind
``start_tcp_server`` on an ephemeral port, prints ``READY <port>`` and serves
until SIGTERM.  SIGUSR1 marks the end of set-up (spans after it are timed
ops).  On shutdown it writes a summary — serve counters, peak RSS and, when
traced, its spans — to ``--summary``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from repro.dist import DistributedRangeTree  # noqa: E402
from repro.semigroup import sum_of_dim  # noqa: E402
from repro.serve import FlushPolicy, QueryService, start_tcp_server  # noqa: E402

from perf.calib import peak_rss_mb  # noqa: E402

FLUSH_POLICY = FlushPolicy(max_wait_ms=2.0, max_batch=1024)


async def serve(tree, tracer) -> dict:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    if tracer is not None:
        loop.add_signal_handler(signal.SIGUSR1, lambda: tracer.mark("op", -1))
    else:
        loop.add_signal_handler(signal.SIGUSR1, lambda: None)
    service = QueryService(tree, FLUSH_POLICY)
    await service.start()
    server = await start_tcp_server(service)
    print(f"READY {server.sockets[0].getsockname()[1]}", flush=True)
    await stop.wait()
    server.close()
    await server.wait_closed()
    await service.aclose()
    return service.metrics.summary()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", required=True, help=".npy file of (n, d) coordinates")
    ap.add_argument("--p", type=int, required=True)
    ap.add_argument("--summary", required=True, help="JSON file written at shutdown")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from perf.layers import TARGETS
        from perf.trace import Tracer

        tracer = Tracer(op_from="QueryEngine.execute")
        tracer.install(TARGETS)
    tree = DistributedRangeTree.build(
        np.load(args.points), p=args.p, semigroup=sum_of_dim(0)
    )
    try:
        served = asyncio.run(serve(tree, tracer))
    finally:
        tree.close()
    summary = {"serve": served, "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        from perf.layers import spans_to_rows

        summary["spans"] = spans_to_rows(tracer.spans)
        summary["warnings"] = tracer.warnings
    Path(args.summary).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
