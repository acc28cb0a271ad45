"""Command-line interface.

The subcommands::

    repro-range-search experiments [IDS ...] [--markdown] [-o FILE]
        Run the paper-reproduction experiments (``--list`` names them)
        and print their tables of exact counters; --markdown renders
        them as markdown, -o writes to FILE.

    repro-range-search query --points uniform --n 2048 --d 2 --p 8 \
                             --queries selectivity --m 512 --mode count
        Build a distributed tree over a synthetic workload and answer a
        query batch, printing answers (truncated) and machine metrics.
        ``--mode mixed`` cycles count/report/aggregate descriptors
        through the repro.query planner (one search pass for all three);
        ``--json`` emits the structured ResultSet instead of text.

    repro-range-search stream --n-ops 200 --d 2 --p 4 --backend serial
        Replay a seeded update/query stream on the dynamized distributed
        tree (epoch-buffered inserts/deletes, paper §6's open problem),
        cross-checking every checkpoint against the sequential
        DynamicRangeTree oracle; ``--json`` emits the stream shape, the
        epoch layout, and the final checkpoint's ResultSet.

    repro-range-search serve --n 4096 --p 4 --port 8787
        Run the micro-batching query daemon (repro.serve): concurrent
        NDJSON/TCP clients coalesce into mixed-mode QueryBatches (the
        backlog is the next batch whenever no pass runs, at most
        ``--max-batch`` queries); Ctrl-C drains in-flight batches.
        ``--max-inflight`` bounds the backlog (sheds with Overloaded)
        and ``--deadline-ms`` sets a default per-query deadline.

    repro-range-search loadgen --m 256 --clients 8 --arrival poisson --rate 2000
        Drive a serve daemon with a seeded client population — an
        in-process service over a fresh tree by default, or an external
        daemon with --connect HOST:PORT — and print qps plus latency
        percentiles; ``--json`` emits the measurement row.
        ``--max-inflight``/``--deadline-ms``/``--retries`` drive the
        degradation paths deliberately (errors land in the row).

    Chaos runs: ``query`` and ``serve`` accept ``--fault-plan SPEC``
    (inline JSON or a file path) to arm a seeded repro.faults FaultPlan
    — injected crashes/delays/raises replay bit-for-bit.

    repro-range-search demo
        The quickstart walkthrough.

Also available as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from .cgm.backend import available_backends

    ap = argparse.ArgumentParser(
        prog="repro-range-search",
        description="d-Dimensional Range Search on Multicomputers — reproduction CLI",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("experiments", help="run paper-reproduction experiments")
    ex.add_argument("ids", nargs="*", help="experiment ids (default: all)")
    ex.add_argument("--markdown", action="store_true", help="emit markdown tables")
    ex.add_argument("-o", "--output", help="write output to a file")
    ex.add_argument("--list", action="store_true", help="list experiment ids and exit")

    q = sub.add_parser("query", help="build a tree over synthetic data and query it")
    q.add_argument("--points", default="uniform", help="point distribution")
    q.add_argument("--queries", default="selectivity", help="query workload")
    q.add_argument("--n", type=int, default=1024, help="number of points")
    q.add_argument("--d", type=int, default=2, help="dimensions")
    q.add_argument("--p", type=int, default=8, help="virtual processors (power of two)")
    q.add_argument("--m", type=int, default=256, help="number of queries")
    q.add_argument("--selectivity", type=float, default=0.01)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument(
        "--mode",
        choices=["count", "report", "aggregate", "mixed"],
        default="count",
        help="output mode; 'mixed' cycles count/report/aggregate through one planned pass",
    )
    q.add_argument(
        "--backend",
        choices=available_backends(),
        default="serial",
        help="execution backend ('process' runs one worker process per "
        "virtual processor)",
    )
    q.add_argument("--verify", action="store_true", help="check against brute force")
    q.add_argument("--trace", action="store_true", help="print the superstep timeline")
    q.add_argument("--validate", action="store_true", help="run the structural validator")
    q.add_argument(
        "--json",
        action="store_true",
        help="emit the ResultSet as machine-readable JSON on stdout",
    )
    q.add_argument(
        "--fault-plan",
        metavar="SPEC",
        help="arm a repro.faults FaultPlan for the run: inline JSON or a "
        "path to a JSON file (exported to worker processes; chaos runs "
        "replay bit-for-bit)",
    )

    s = sub.add_parser(
        "stream",
        help="replay an update/query stream on the dynamized distributed tree",
    )
    s.add_argument("--n-ops", type=int, default=200, help="approximate stream length")
    s.add_argument("--d", type=int, default=2, help="dimensions")
    s.add_argument("--p", type=int, default=4, help="virtual processors (power of two)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument(
        "--flush-threshold",
        type=int,
        default=32,
        help="buffered updates absorbed into a bucket forest at this size",
    )
    s.add_argument(
        "--backend",
        choices=available_backends(),
        default="serial",
        help="execution backend",
    )
    s.add_argument(
        "--json",
        action="store_true",
        help="emit stream shape, epoch layout, and the final checkpoint as JSON",
    )

    srv = sub.add_parser(
        "serve",
        help="run the micro-batching query daemon over NDJSON/TCP",
    )
    srv.add_argument("--points", default="uniform", help="point distribution")
    srv.add_argument("--n", type=int, default=4096, help="number of points")
    srv.add_argument("--d", type=int, default=2, help="dimensions")
    srv.add_argument("--p", type=int, default=4, help="virtual processors (power of two)")
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument(
        "--backend",
        choices=available_backends(),
        default="serial",
        help="execution backend",
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8787, help="TCP port (0 = ephemeral)")
    srv.add_argument(
        "--max-batch",
        type=int,
        default=1024,
        help="largest batch: a longer backlog rides the following passes",
    )
    srv.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="admission cap: shed (Overloaded) past this many unanswered "
        "queries (default: the service backstop)",
    )
    srv.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-query deadline; expired queries answer "
        "DeadlineExceeded instead of executing",
    )
    srv.add_argument(
        "--fault-plan",
        metavar="SPEC",
        help="arm a repro.faults FaultPlan in the daemon: inline JSON or "
        "a path to a JSON file",
    )

    lg = sub.add_parser(
        "loadgen",
        help="drive a serve daemon with a seeded client population",
    )
    lg.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="target an already-running daemon over TCP "
        "(default: in-process service over a fresh tree)",
    )
    lg.add_argument("--points", default="uniform", help="point distribution (in-process)")
    lg.add_argument("--n", type=int, default=4096, help="number of points (in-process)")
    lg.add_argument("--d", type=int, default=2, help="dimensions")
    lg.add_argument("--p", type=int, default=4, help="virtual processors (in-process)")
    lg.add_argument("--m", type=int, default=256, help="number of queries")
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--clients", type=int, default=4, help="client population size")
    lg.add_argument(
        "--arrival",
        choices=["closed", "poisson"],
        default="closed",
        help="closed-loop population or open-loop Poisson arrivals",
    )
    lg.add_argument(
        "--rate",
        type=float,
        default=None,
        help="offered load in qps (poisson arrivals only)",
    )
    lg.add_argument("--max-batch", type=int, default=1024)
    lg.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        help="service admission cap (in-process runs): drive overload "
        "behaviour deliberately",
    )
    lg.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-query deadline carried on every generated query",
    )
    lg.add_argument(
        "--retries",
        type=int,
        default=0,
        help="client retries (jittered exponential backoff) on Overloaded",
    )
    lg.add_argument(
        "--backend",
        choices=available_backends(),
        default="serial",
        help="execution backend (in-process)",
    )
    lg.add_argument(
        "--json",
        action="store_true",
        help="emit the measurement row as machine-readable JSON on stdout",
    )

    sub.add_parser("demo", help="run the quickstart walkthrough")
    return ap


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .bench import EXPERIMENTS

    if args.list:
        for key, (desc, _fn) in EXPERIMENTS.items():
            print(f"{key:5} {desc}")
        return 0

    ids = [i.upper() for i in args.ids] or list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; use --list", file=sys.stderr)
        return 2

    chunks = []
    for key in ids:
        desc, fn = EXPERIMENTS[key]
        print(f"running {key}: {desc} ...", file=sys.stderr)
        table = fn()
        chunks.append(table.to_markdown() if args.markdown else table.render())
    text = "\n\n".join(chunks) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _install_fault_plan(spec: str | None):
    """Arm a fault plan from an inline JSON spec or a JSON file path.

    Returns the installed :class:`~repro.faults.FaultPlan` (or ``None``).
    The plan is exported through the environment so process-backend
    workers inherit it — the whole point of a CLI chaos run.
    """
    if not spec:
        return None
    import os

    from .faults import FaultPlan, install_plan

    text = spec
    if not spec.lstrip().startswith("{") and os.path.exists(spec):
        with open(spec) as fh:
            text = fh.read()
    plan = FaultPlan.from_spec(text)
    install_plan(plan, env=True)
    print(
        f"fault plan armed: {plan.name or 'unnamed'} "
        f"({len(plan.rules)} rule{'s' if len(plan.rules) != 1 else ''})",
        file=sys.stderr,
    )
    return plan


def _make_batch(mode: str, queries) -> "object":
    """The CLI's query batch: one descriptor per box, mixed cycles modes."""
    from .query import QueryBatch, aggregate, count, report

    makers = {"count": count, "report": report, "aggregate": aggregate}
    if mode == "mixed":
        cycle = [count, report, aggregate]
        return QueryBatch([cycle[i % 3](q) for i, q in enumerate(queries)])
    return QueryBatch([makers[mode](q) for q in queries])


def _verify_results(results, points) -> bool:
    from .seq import bf_aggregate, bf_count, bf_report

    for r in results:
        if r.mode == "count":
            ok = r.value == bf_count(points, r.query.box)
        elif r.mode == "report":
            ok = r.value == bf_report(points, r.query.box)
        elif r.mode == "aggregate":
            sg = r.query.semigroup
            if sg is None:
                ok = r.value == bf_count(points, r.query.box)
            else:
                ok = r.value == bf_aggregate(points, r.query.box, sg)
        else:
            ok = True  # no oracle registered for plug-in modes
        if not ok:
            return False
    return True


def _cmd_query(args: argparse.Namespace) -> int:
    import json as _json

    from .dist import DistributedRangeTree
    from .workloads import make_points, make_queries

    _install_fault_plan(args.fault_plan)
    points = make_points(args.points, args.n, args.d, seed=args.seed)
    if args.queries == "selectivity":
        queries = make_queries(
            "selectivity", args.m, args.d, seed=args.seed + 1, selectivity=args.selectivity
        )
    else:
        queries = make_queries(args.queries, args.m, args.d, seed=args.seed + 1)

    # The tree owns its machine (and that machine its backend): the
    # with-block guarantees worker processes shut down on
    # every exit path, including --validate/--verify failures.
    with DistributedRangeTree.build(points, p=args.p, backend=args.backend) as tree:
        if not args.json:
            print(f"built {tree}: {tree.space_report()}")

        rs = tree.run(_make_batch(args.mode, queries))
        # With --json, stdout carries exactly one JSON document; every other
        # diagnostic (trace, validation, verification) goes to stderr so the
        # machine-readable contract survives any flag combination.
        diag = sys.stderr if args.json else sys.stdout
        if args.json:
            print(_json.dumps(rs.to_dict(), indent=2, sort_keys=True))
        else:
            preview = [
                len(r.value) if r.mode == "report" else r.value for r in rs[:10]
            ]
            print(f"{args.mode} answers (first 10): {preview}")
            print(f"metrics: {rs.metrics.summary()}")
            print(f"phases: {rs.metrics.phase_sequence()}")

        if args.trace:
            from .cgm import CostModel, render_trace

            print(render_trace(tree.metrics, CostModel()), file=diag)
        if args.validate:
            from .dist.validate import validate_tree

            rep = validate_tree(tree)
            print(rep.summary(), file=diag)
            if not rep.ok:
                return 1

        if args.verify:
            ok = _verify_results(rs, points)
            print(f"verification: {'OK' if ok else 'FAILED'}", file=diag)
            if not ok:
                return 1
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    import json as _json

    from .dist import DynamicDistributedRangeTree
    from .errors import ReproError
    from .query import QueryBatch, count, report
    from .seq import DynamicRangeTree
    from .workloads import stream_counts, update_query_stream

    ops = update_query_stream(args.n_ops, args.d, seed=args.seed)
    diag = sys.stderr if args.json else sys.stdout
    print(f"stream: {stream_counts(ops)}", file=diag)

    mismatches = 0
    last_rs = None
    with DynamicDistributedRangeTree(
        args.d,
        p=args.p,
        backend=args.backend,
        flush_threshold=args.flush_threshold,
    ) as dyn:
        oracle = DynamicRangeTree(args.d)
        for op in ops:
            if op.kind == "insert":
                dyn.insert(op.coords, pid=op.pid)
                oracle.insert(op.coords, pid=op.pid)
            elif op.kind == "delete":
                for struct in (dyn, oracle):
                    try:
                        struct.delete(op.pid)
                    except ReproError:
                        if not op.absent:
                            raise
            else:
                batch = QueryBatch(
                    [count(b) for b in op.boxes]
                    + [report(b, limit=5) for b in op.boxes[:1]]
                )
                last_rs = dyn.run(batch)
                counts = last_rs.values()[: len(op.boxes)]
                truth = oracle.count_many(op.boxes)
                ok = counts == truth
                mismatches += 0 if ok else 1
                print(
                    f"  checkpoint: counts {counts} "
                    f"(oracle {'agrees' if ok else f'DISAGREES: {truth}'}), "
                    f"epochs {dyn.bucket_sizes}+{dyn.buffered_count} buffered",
                    file=diag,
                )
        layout = dyn.space_report()
    if args.json:
        print(
            _json.dumps(
                {
                    "stream": stream_counts(ops),
                    "space": layout,
                    "oracle_agrees": mismatches == 0,
                    "final_checkpoint": last_rs.to_dict() if last_rs else None,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"final layout: {layout}")
        print(f"oracle verification: {'OK' if mismatches == 0 else 'FAILED'}")
    return 0 if mismatches == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .dist import DistributedRangeTree
    from .serve import FlushPolicy, QueryService, start_tcp_server
    from .workloads import make_points

    _install_fault_plan(args.fault_plan)
    points = make_points(args.points, args.n, args.d, seed=args.seed)

    async def run(tree) -> None:
        async with QueryService(
            tree,
            FlushPolicy(max_batch=args.max_batch),
            max_inflight=args.max_inflight,
            default_deadline_ms=args.deadline_ms,
        ) as service:
            server = await start_tcp_server(service, args.host, args.port)
            sock = server.sockets[0].getsockname()
            print(
                f"serving {tree} on {sock[0]}:{sock[1]} "
                f"(batch: the backlog whenever no pass runs, at most "
                f"{args.max_batch} queries); "
                "Ctrl-C stops",
                file=sys.stderr,
            )
            try:
                await asyncio.Event().wait()  # forever, until cancelled
            finally:
                # stop accepting first; __aexit__ then drains in-flight work
                server.close()
                await server.wait_closed()
                print(
                    f"drained: {service.metrics.summary()}", file=sys.stderr
                )

    with DistributedRangeTree.build(
        points, p=args.p, backend=args.backend
    ) as tree:
        try:
            asyncio.run(run(tree))
        except KeyboardInterrupt:
            pass
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import json as _json

    from .serve import run_loadgen, run_loadgen_remote

    if args.connect:
        host, _, port = args.connect.rpartition(":")
        if not host or not port.isdigit():
            print(f"--connect wants HOST:PORT, got {args.connect!r}", file=sys.stderr)
            return 2
        row = run_loadgen_remote(
            host,
            int(port),
            m=args.m,
            d=args.d,
            seed=args.seed,
            clients=args.clients,
            arrival=args.arrival,
            rate_qps=args.rate,
            deadline_ms=args.deadline_ms,
            retries=args.retries,
        )
    else:
        from .dist import DistributedRangeTree
        from .workloads import make_points

        points = make_points(args.points, args.n, args.d, seed=args.seed)
        with DistributedRangeTree.build(
            points, p=args.p, backend=args.backend
        ) as tree:
            row = run_loadgen(
                tree,
                m=args.m,
                seed=args.seed,
                clients=args.clients,
                arrival=args.arrival,
                rate_qps=args.rate,
                max_batch=args.max_batch,
                max_inflight=args.max_inflight,
                deadline_ms=args.deadline_ms,
                retries=args.retries,
            )
    if args.json:
        print(_json.dumps(row, indent=2, sort_keys=True))
    else:
        print(
            f"{row['arrival']} x{row['clients']} over {row['transport']}: "
            f"{row['qps']} qps, p50 {row['p50_ms']}ms, p99 {row['p99_ms']}ms, "
            f"mean batch {row.get('mean_batch_size')}"
        )
        if row.get("errors"):
            print(
                f"errors: {row['errors']}/{row['m']} "
                f"({row['error_types']})",
                file=sys.stderr,
            )
        if row.get("answers_match_direct") is False:
            print("answers DIVERGED from direct execution", file=sys.stderr)
            return 1
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    import runpy
    from pathlib import Path

    candidate = Path(__file__).resolve().parents[2] / "examples" / "quickstart.py"
    if candidate.exists():
        runpy.run_path(str(candidate), run_name="__main__")
        return 0
    # installed without the examples tree: run an inline mini-demo
    from .dist import DistributedRangeTree
    from .query import count
    from .workloads import selectivity_queries, uniform_points

    pts = uniform_points(512, 2, seed=0)
    tree = DistributedRangeTree.build(pts, p=4)
    qs = selectivity_queries(64, 2, seed=1, selectivity=0.05)
    counts = tree.run([count(q) for q in qs]).values()
    print(f"{tree} -> first counts {counts[:8]}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand; a :class:`~repro.errors.ReproError` (bad
    ``--p``, ``--d``, …) is reported on stderr and exits 2, as argparse
    does for a malformed command line."""
    from .errors import ReproError

    args = build_parser().parse_args(argv)
    command = {
        "experiments": _cmd_experiments,
        "query": _cmd_query,
        "stream": _cmd_stream,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "demo": _cmd_demo,
    }[args.command]
    try:
        return command(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
