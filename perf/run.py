#!/usr/bin/env python3
"""The repo's benchmark runner.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
                        [--scale full|smoke] [--out FILE]

Prints every metric by name with its unit, verifies every answer against the
brute-force oracle, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json`` (always taken with
tracing off); with ``--trace 1`` a fifth of the ops is replayed with spans
recorded and the metrics are the per-layer ones.  ``--workload all`` runs the
five workloads in turn.  ``--out`` appends each run's record to a JSON file
``perf/compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perf/run.py: no program to measure ({ROOT / 'src' / 'repro'} is missing)")
    # run as a script: make `repro` and the `perf` package importable without
    # PYTHONPATH, and keep perf/'s own files from shadowing stdlib modules
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perf import serve_load, workloads  # noqa: E402
from perf.calib import Clock, pin_to_one_cpu  # noqa: E402

TRACE_SHARE = 5  # the traced run replays one fifth of the ops

#: Workload-specific metrics: printed and written to --out on the workload
#: that defines them, absent elsewhere (never reported as 0), so they are not
#: in BENCHMARK.json, whose lists every workload must emit in full.
EXTRA_UNITS = {
    "error_share": "fraction",
    "op_samples": "count",
    "host.unit_ms_p50": "ms",
    "host.unit_ms_spread": "ratio",
    "dist.update_us_mean": "us",
    "dist.update_us_p50": "us",
    "dist.update_ms_max": "ms",
    "dist.dynamic_self_ms_per_op": "ms",
    "dist.bucket_passes_per_op": "count",
    "dist.pruned_passes": "count",
    "dist.absorbs": "count",
    "dist.rebuild_points": "count",
    "dist.tombstones_end": "count",
    "serve.queue_ms_p50": "ms",
    "serve.exec_ms_p50": "ms",
    "serve.wire_ms_p50": "ms",
    "serve.light_batch_mean": "count",
    "serve.sat_batch_mean": "count",
    "serve.sat_rtt_ms_p50": "ms",
    "serve.rtt_ms_p99": "ms",
    "serve.late_ms_p99": "ms",
    "serve.shed": "count",
    "serve.child_start_s": "s",
}


#: Counts that must repeat bit-for-bit for the same seed (in-process workloads).
EXACT = frozenset(
    {
        "semigroup.fold_rows_per_op", "cgm.run_phase_calls_per_op", "cgm.exchange_calls_per_op",
        "cgm.rounds_per_op", "cgm.max_h_per_op", "cgm.comm_bytes_per_op",
        "dist.replicate_bytes_per_op", "dist.subqueries_per_op", "dist.subquery_imbalance",
        "dist.hat_nodes", "dist.forest_records", "query.result_ids_per_op",
        "dist.bucket_passes_per_op", "dist.pruned_passes", "dist.absorbs",
        "dist.rebuild_points", "dist.tombstones_end",
    }
)


def pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q))


def host_metrics(clock: Clock) -> Dict[str, float]:
    """How fast and how unsteady the host was, from the run's unit samples."""
    return {
        "host.unit_ms_p50": median(clock.units),
        "host.unit_ms_spread": pct(clock.units, 90) / pct(clock.units, 10),
    }


def make_workload(name: str, spec: Dict[str, Any], seed: int, ops: int):
    if name == "dynamic_stream":
        return workloads.DynamicWorkload(spec, seed, ops)
    return workloads.StaticWorkload(spec, seed)


def serve_counts(spec: Dict[str, Any], seconds: float, scale: str) -> tuple:
    return (
        workloads.scaled_ops(spec["light"], seconds, scale),
        workloads.scaled_ops(spec["saturated"], seconds, scale),
    )


# ---------------------------------------------------------------------------
# --trace 0: the end-to-end metrics
# ---------------------------------------------------------------------------
def end_to_end(name: str, seed: int, seconds: float, scale: str) -> Dict[str, Any]:
    spec = workloads.SPECS[scale][name]
    clock = Clock()
    extras: Dict[str, float] = {}
    if name == "serve_tcp":
        light, saturated = serve_counts(spec, seconds, scale)
        res = serve_load.run_serve(spec, seed, light, saturated, clock, workloads.SETUPS[scale])
        op_ms = res.light_cal_ms
        # the median round: one stalled round in a hundred would move the mean
        # by more than a real change does
        qps = median(res.sat_round_qps) if res.sat_round_qps else 0.0
    else:
        ops = workloads.scaled_ops(spec["ops"], seconds, scale)
        res = workloads.run_pass(
            make_workload(name, spec, seed, ops), ops, clock, workloads.SETUPS[scale]
        )
        op_ms = clock.cal_ms.get("op", [])
        update_ms = clock.cal_ms.get("update", [])
        busy_s = (sum(op_ms) + sum(update_ms)) / 1000.0
        qps = res.queries_ok / busy_s if busy_s else 0.0
        if update_ms:
            per_block = res.updates / len(update_ms)  # every block has as many updates
            extras["dist.update_us_mean"] = sum(update_ms) * 1000.0 / res.updates
            extras["dist.update_us_p50"] = median(update_ms) * 1000.0 / per_block
            extras["dist.update_ms_max"] = max(update_ms)
        extras.update(res.extras)
    extras["op_samples"] = len(op_ms)
    extras.update(host_metrics(clock))
    metrics = {
        "setup_s": median(res.setup_cal_s) if res.setup_cal_s else 0.0,
        "op_ms_p50": pct(op_ms, 50) if op_ms else 0.0,
        "op_ms_p90": pct(op_ms, 90) if op_ms else 0.0,
        "queries_per_s": qps,
        "peak_rss_mb": res.peak_rss_mb,
    }
    return {"attempted": res.attempted, "failed": res.failed, "metrics": metrics, "extras": extras}


# ---------------------------------------------------------------------------
# --trace 1: the per-layer metrics
# ---------------------------------------------------------------------------
def per_layer(name: str, seed: int, seconds: float, scale: str) -> Dict[str, Any]:
    # imported here so the untraced run never loads the wrap table
    from perf import baselines, layers
    from perf.trace import Tracer

    spec = workloads.SPECS[scale][name]
    clock = Clock()
    extras: Dict[str, float] = {}
    tracer = Tracer()
    if name == "serve_tcp":
        light, saturated = (max(1, c // TRACE_SHARE) for c in serve_counts(spec, seconds, scale))
        plain = serve_load.run_serve(spec, seed, light, saturated, clock, 1)
        res = serve_load.run_serve(spec, seed, light, saturated, clock, 1, trace=True)
        summary = res.child_summary or {}
        tracer.spans = layers.rows_to_spans(summary.get("spans", []))
        for message in summary.get("warnings", []):
            tracer.warn(message)
        ops = len(res.light_replies) + len(res.sat_replies)
        plain_p50, traced_p50 = median(plain.light_cal_ms), median(res.light_cal_ms)
        raw_p50 = median(res.light_raw_ms)
        # no span covers the wire or the queue: close the budget on the child's busy time
        busy_s = sum(layers.timed_root_seconds(tracer.spans).values())
        points, reqs = res.points, res.requests
        seq_batch = workloads.make_queries(reqs.lo[1:2], reqs.hi[1:2], reqs.modes[1:2], None)
        replies = res.light_replies
        extras.update(
            {
                "serve.queue_ms_p50": median(r["queue_ms"] for r in replies),
                "serve.exec_ms_p50": median(r["exec_ms"] for r in replies),
                "serve.wire_ms_p50": median(
                    rtt - r["queue_ms"] - r["exec_ms"]
                    for rtt, r in zip(res.light_rtt_ms, replies)
                ),
                "serve.light_batch_mean": serve_load.batch_mean(replies),
                "serve.sat_batch_mean": serve_load.batch_mean(res.sat_replies),
                "serve.sat_rtt_ms_p50": median(res.sat_rtt_ms),
                "serve.rtt_ms_p99": pct(res.light_rtt_ms, 99),
                "serve.late_ms_p99": pct(res.light_late_ms, 99),
                "serve.shed": summary.get("serve", {}).get("shed", 0),
                "serve.child_start_s": res.child_start_s[-1],
            }
        )
    else:
        ops = max(1, workloads.scaled_ops(spec["ops"], seconds, scale) // TRACE_SHARE)
        workload = make_workload(name, spec, seed, ops)
        plain_clock = Clock()
        plain = workloads.run_pass(workload, ops, plain_clock, 1)
        tracer.install(layers.TARGETS)
        try:
            res = workloads.run_pass(workload, ops, clock, 1, mark=tracer.mark)
        finally:
            tracer.uninstall()
        clock.units.extend(plain_clock.units)
        plain_p50, traced_p50 = median(plain_clock.cal_ms["op"]), median(clock.cal_ms["op"])
        raw_p50 = median(clock.raw_ms["op"])
        busy_s = sum(clock.raw_ms["op"]) / 1000.0
        points, seq_batch = workload.points, workload.batches[0]
        extras.update(res.extras)

    metrics = layers.summarize(tracer.spans, ops)
    for key in [k for k in metrics if k in EXTRA_UNITS]:
        extras[key] = metrics.pop(key)
    metrics["query.result_ids_per_op"] = res.result_ids / max(ops, 1)
    metrics["cgm.dispatch_us"] = baselines.dispatch_us(spec["p"], tracer.warn)
    metrics.update(baselines.seq_metrics(points, seq_batch, tracer.warn))
    metrics["seq.crossover_ratio"] = (
        raw_p50 / metrics["seq.batch_ms"] if metrics["seq.batch_ms"] else 0.0
    )
    metrics.update(host_metrics(clock))
    metrics["bench.trace_overhead"] = traced_p50 / plain_p50
    covered = sum(layers.timed_root_seconds(tracer.spans).values())
    metrics["bench.span_coverage"] = covered / busy_s if busy_s else 0.0

    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{name}.json").write_text(json.dumps(tracer.chrome_trace()))
    print(layers.format_budget(metrics))
    share = metrics["dist.search_self_share"]
    print(f"  dist.search_self is {100.0 * share:.1f}% of the Search pass (the residual to split)")
    if metrics["bench.span_coverage"] < 0.99:
        print(f"  TRACE CLOSURE GATE FAILED: span_coverage {metrics['bench.span_coverage']:.4f} < 0.99")
    return {
        "attempted": plain.attempted + res.attempted,
        "failed": plain.failed + res.failed,
        "metrics": metrics,
        "extras": extras,
    }


# ---------------------------------------------------------------------------
def run_one(name: str, args, bench: Dict[str, Any]) -> Dict[str, Any]:
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    measure = per_layer if args.trace else end_to_end
    got = measure(name, args.seed, args.seconds, args.scale)
    missing = [k for k in units if k not in got["metrics"]]
    if missing:
        raise SystemExit(f"internal error: metrics not measured: {missing}")
    got["extras"]["error_share"] = got["failed"] / max(got["attempted"], 1)

    def exact(key: str) -> bool:
        # in serve_tcp the batching, and so every per-request count, follows the clock
        return key in EXACT and name != "serve_tcp"

    record = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "trace": args.trace,
        "attempted": got["attempted"],
        "failed": got["failed"],
        "metrics": {
            k: {"value": got["metrics"][k], "unit": units[k], "exact": exact(k)} for k in units
        },
        "extras": {
            k: {"value": v, "unit": EXTRA_UNITS[k], "exact": exact(k)}
            for k, v in got["extras"].items()
        },
    }
    print(f"== {name} seed={args.seed} scale={args.scale} trace={args.trace}: "
          f"{record['attempted']} ops attempted, {record['failed']} failed")
    for group in ("metrics", "extras"):
        for key, m in record[group].items():
            print(f"  {key:<32} {m['value']:>16.6f} {m['unit']}")
    return record


def main(argv: "List[str] | None" = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    names = list(workloads.SPECS["full"])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(workloads.RUN_SECONDS))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=tuple(workloads.SPECS))
    ap.add_argument("--out", help="append each run's record to this JSON file")
    args = ap.parse_args(argv)

    if args.workload == "all":
        # one process per workload, so peak_rss_mb is each workload's own
        codes = []
        for name in names:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
            codes.append(subprocess.run(cmd + (["--out", args.out] if args.out else [])).returncode)
        return max(codes)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_to_one_cpu()
    record = run_one(args.workload, args, bench)
    if args.out:
        path = Path(args.out)
        runs = json.loads(path.read_text()) if path.exists() else []
        runs.append(record)
        path.write_text(json.dumps(runs, indent=1))
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()},
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
