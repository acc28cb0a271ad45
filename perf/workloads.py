"""The in-process workloads and the pass that times them.

A *pass* is: set up (build, then first verified op) ``setups`` times, then run a
fixed number of ops on the last structure, each timed on the calibrated
clock and verified against the oracle off the clock.  The timed paths use
only ``build`` / ``run`` / ``insert`` / ``delete`` / ``close`` and the
``repro.query`` constructors.
"""

from __future__ import annotations

import gc
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.dist import DistributedRangeTree, DynamicDistributedRangeTree
from repro.query import aggregate, count, report
from repro.semigroup import sum_of_dim
from repro.semigroup.group import sum_group

from . import inputs, oracle
from .calib import Clock, peak_rss_mb

#: Op counts are frozen at RUN_SECONDS of measured work on the reference box;
#: ``--seconds`` scales them in proportion, never below the floor that keeps
#: ten samples beyond p90.
RUN_SECONDS = 10
MIN_OPS = 100

SPECS: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "batch_uniform": dict(n=16384, d=2, p=8, m=768, modes="cra", distinct=8, ops=100),
        "batch_d3": dict(n=4096, d=3, p=4, m=512, modes="ca", distinct=8, ops=100),
        "single_query": dict(n=16384, d=2, p=8, m=1, modes="cra", distinct=256, ops=1500),
        "serve_tcp": dict(n=16384, d=2, p=8, qps=30.0, warmup=48, light=300, saturated=2000),
        "dynamic_stream": dict(n=8192, d=2, p=4, m=12, inserts=44, deletes=4, warmup=100, ops=100),
    },
    "smoke": {
        "batch_uniform": dict(n=512, d=2, p=4, m=64, modes="cra", distinct=4, ops=10),
        "batch_d3": dict(n=256, d=3, p=2, m=32, modes="ca", distinct=4, ops=10),
        "single_query": dict(n=512, d=2, p=4, m=1, modes="cra", distinct=16, ops=20),
        "serve_tcp": dict(n=512, d=2, p=4, qps=30.0, warmup=6, light=20, saturated=32),
        "dynamic_stream": dict(n=256, d=2, p=2, m=8, inserts=44, deletes=4, warmup=4, ops=10),
    },
}
DYNAMIC_HALF_WIDTH = 0.05
DYNAMIC_FLUSH = 64
#: Fresh set-ups per run (the median is reported).
SETUPS = {"full": 3, "smoke": 1}


def scaled_ops(spec_ops: int, seconds: float, scale: str) -> int:
    """The frozen op count, scaled to ``--seconds`` (full scale only)."""
    if scale != "full":
        return spec_ops
    return max(MIN_OPS, round(spec_ops * seconds / RUN_SECONDS))


def make_queries(lo: np.ndarray, hi: np.ndarray, modes: List[str], semigroup) -> list:
    """Query descriptors for boxes ``[lo[i], hi[i]]`` in the given modes."""
    out = []
    for i, mode in enumerate(modes):
        box = list(zip(lo[i].tolist(), hi[i].tolist()))
        if mode == "c":
            out.append(count(box))
        elif mode == "r":
            out.append(report(box))
        else:
            out.append(aggregate(box, semigroup))
    return out


class StaticWorkload:
    """``tree.run`` over a static tree: ``distinct`` batches of ``m`` boxes, cycled."""

    warmup_cycles = 0
    update = None  # no update block between ops

    def __init__(self, spec: Dict[str, Any], seed: int) -> None:
        self.spec = spec
        n, d, m = spec["n"], spec["d"], spec["m"]
        self.points = inputs.uniform_points(inputs.rng_for(seed, 0), n, d)
        ids = np.arange(n, dtype=np.int64)
        rng = inputs.rng_for(seed, 1)
        total = sum_of_dim(0)
        self.batches: List[list] = []
        self.expected: List[list] = []
        for b in range(spec["distinct"]):
            lo, hi = inputs.selectivity_boxes(rng, m, d)
            modes = inputs.mode_cycle(m, spec["modes"], offset=b)
            self.batches.append(make_queries(lo, hi, modes, total))
            self.expected.append(oracle.answers(ids, self.points, lo, hi, modes))

    def build(self):
        return DistributedRangeTree.build(self.points, p=self.spec["p"])

    def op(self, tree, k: int) -> list:
        return tree.run(self.batches[k % len(self.batches)]).values()

    def expect(self, k: int) -> list:
        return self.expected[k % len(self.expected)]

    def inspect(self, tree) -> Dict[str, float]:
        return {}


class DynamicWorkload:
    """Cycles of one update block then one ``dyn.run``; op 0 queries the bulk load.

    The first ``warmup`` cycles are update blocks only, run untimed between
    set-up and the timed cycles: they age the structure to mid-life (several
    buckets, some hundred tombstones), where an op costs about the same from
    one cycle to the next.  On a fresh bulk load op cost climbs fourfold over
    the run, and a percentile of a ramp rests on a handful of ops.
    """

    def __init__(self, spec: Dict[str, Any], seed: int, ops: int) -> None:
        self.spec = spec
        self.warmup_cycles = spec["warmup"]
        n, d, m = spec["n"], spec["d"], spec["m"]
        self.points = inputs.uniform_points(inputs.rng_for(seed, 0), n, d)
        stream = inputs.UpdateStream(inputs.rng_for(seed, 2), self.points)
        rng = inputs.rng_for(seed, 1)
        self.updates: List[tuple] = [([], np.empty((0, d)), [])]
        self.batches: Dict[int, list] = {}
        self.expected: Dict[int, list] = {}
        for k in range(self.warmup_cycles + ops + 1):
            if k:
                self.updates.append(
                    stream.next_cycle(spec["inserts"], spec["deletes"])
                )
            if 0 < k <= self.warmup_cycles:
                continue
            lo, hi = inputs.centered_boxes(rng, m, d, DYNAMIC_HALF_WIDTH)
            modes = inputs.mode_cycle(m, "cra", offset=k)
            self.batches[k] = make_queries(lo, hi, modes, None)
            ids, coords = stream.live()
            self.expected[k] = oracle.answers(ids, coords, lo, hi, modes)

    def build(self):
        return DynamicDistributedRangeTree.build(
            self.points,
            p=self.spec["p"],
            semigroup=sum_group(0),
            flush_threshold=DYNAMIC_FLUSH,
        )

    def update(self, dyn, k: int) -> int:
        new_ids, new_coords, dead = self.updates[k]
        for pid, row in zip(new_ids, new_coords.tolist()):
            dyn.insert(row, pid=pid)
        for pid in dead:
            dyn.delete(pid)
        return len(new_ids) + len(dead)

    def op(self, dyn, k: int) -> list:
        return dyn.run(self.batches[k]).values()

    def expect(self, k: int) -> list:
        return self.expected[k]

    def inspect(self, dyn) -> Dict[str, float]:
        """Exact structural counts read off the structure after the last op."""
        try:
            return {
                "dist.rebuild_points": dyn.rebuild_points_total,
                "dist.pruned_passes": dyn.pruned_bucket_passes,
                "dist.tombstones_end": dyn.space_report()["tombstones"],
            }
        except (AttributeError, KeyError):
            return {}


class PassResult:
    """What one pass measured (times live on the clock it was given)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.queries_ok = 0
        self.result_ids = 0
        self.updates = 0
        self.setup_cal_s: List[float] = []
        self.peak_rss_mb = 0.0
        self.extras: Dict[str, float] = {}


def run_pass(
    workload,
    ops: int,
    clock: Clock,
    setups: int,
    mark: Optional[Callable[[str, int], None]] = None,
) -> PassResult:
    """Set up ``setups`` times, then time ``ops`` ops on the last structure.

    ``mark(tag, op)`` (the tracer's hook) is told which op the following
    calls belong to.  A raised or wrong op counts as failed; it never stops
    the pass.
    """
    res = PassResult()
    mark = mark or (lambda tag, op: None)

    def checked(key: str, k: int, fn) -> bool:
        res.attempted += 1
        try:
            got = clock.time(key, fn)
        except Exception as exc:  # a failed op is a result, not a crash
            print(f"op {k} raised {type(exc).__name__}: {exc}", flush=True)
            res.failed += 1
            return False
        if got != workload.expect(k):
            res.failed += 1
            return False
        res.queries_ok += len(got)
        res.result_ids += sum(len(v) for v in got if isinstance(v, list))
        return True

    handle = None
    for _ in range(setups):
        if handle is not None:
            handle.close()
            handle = None
        mark("setup", -1)
        clock.close_slice()
        try:
            handle = clock.time("build", workload.build)
        except Exception as exc:
            print(f"build raised {type(exc).__name__}: {exc}", flush=True)
            res.attempted += 1
            res.failed += 1
            continue
        clock.close_slice()  # a unit between build and first op: two brackets, not one
        answered = checked("first_op", 0, lambda: workload.op(handle, 0))
        clock.close_slice()
        if answered:
            res.setup_cal_s.append(
                (clock.cal_ms["build"][-1] + clock.cal_ms["first_op"][-1]) / 1000.0
            )
    if handle is None:
        return res

    update, warm = workload.update, workload.warmup_cycles
    mark("warmup", -1)
    for k in range(1, warm + 1):
        update(handle, k)

    # Keep the resident structure out of the cyclic collector's scans, as
    # timeit keeps the collector out of its timings: a full collection over
    # the tree's objects hits ~8% of batch ops, which puts p90 on the edge
    # between two modes.  Garbage the ops make is still collected.
    gc.collect()
    gc.freeze()
    try:
        for k in range(warm + 1, warm + ops + 1):
            if update is not None:
                mark("update", k)
                res.updates += clock.time("update", lambda: update(handle, k))
            mark("op", k)
            checked("op", k, lambda: workload.op(handle, k))
        clock.close_slice()
        mark("idle", -1)
        res.peak_rss_mb = peak_rss_mb()
        res.extras = workload.inspect(handle)
    finally:
        gc.unfreeze()
        handle.close()
    return res
