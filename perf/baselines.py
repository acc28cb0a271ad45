"""Traced-run side measurements: the sequential baseline and the dispatch floor.

``seq.*`` sets the distributed pass beside the simplest design answering the
same question (the compiled ``SequentialRangeTree.*_many``); ``cgm.dispatch_us``
is a no-op phase through ``Machine.run_phase``, the fixed cost every
superstep pays.  Both are diagnostics: if their targets disappear they report
0 with a warning.
"""

from __future__ import annotations

import time
from statistics import median
from typing import Callable, Dict, List

import numpy as np

SEQ_KEYS = ("seq.build_s", "seq.batch_ms", "seq.single_ms")


def _noop_phase(ctx, payload) -> None:
    return None


def dispatch_us(p: int, warn: Callable[[str], None], calls: int = 400) -> float:
    """Microseconds per ``Machine.run_phase`` of a no-op phase at ``p`` ranks."""
    try:
        from repro.cgm.machine import Machine
        from repro.cgm.phases import register_phase

        register_phase("perf.noop")(_noop_phase)
        with Machine(p) as mach:
            for _ in range(calls // 8):
                mach.run_phase("perf:noop", "perf.noop")
            t0 = time.perf_counter()
            for _ in range(calls):
                mach.run_phase("perf:noop", "perf.noop")
            return (time.perf_counter() - t0) * 1e6 / calls
    except (ImportError, AttributeError) as exc:
        warn(f"cgm.dispatch_us dropped ({exc!r})")
        return 0.0


def seq_metrics(
    points: np.ndarray, batch: List, warn: Callable[[str], None]
) -> Dict[str, float]:
    """Build the sequential tree; answer ``batch`` (Query descriptors) with it."""
    try:
        from repro.geometry import PointSet
        from repro.semigroup import sum_of_dim
        from repro.seq import SequentialRangeTree

        t0 = time.perf_counter()
        tree = SequentialRangeTree(PointSet(points), semigroup=sum_of_dim(0))
        build_s = time.perf_counter() - t0
        many = {
            "count": tree.count_many,
            "report": tree.report_many,
            "aggregate": tree.aggregate_many,
        }
        one = {"count": tree.count, "report": tree.report, "aggregate": tree.aggregate}
        boxes = {mode: [q.box for q in batch if q.mode == mode] for mode in many}

        def whole_batch() -> float:
            t = time.perf_counter()
            for mode, group in boxes.items():
                if group:
                    many[mode](group)
            return (time.perf_counter() - t) * 1000.0

        def single(q) -> float:
            t = time.perf_counter()
            one[q.mode](q.box)
            return (time.perf_counter() - t) * 1000.0

        whole_batch()  # first touch lowers the compiled form
        return {
            "seq.build_s": build_s,
            "seq.batch_ms": median(whole_batch() for _ in range(3)),
            "seq.single_ms": median(single(q) for q in batch[:48]),
        }
    except (ImportError, AttributeError, KeyError) as exc:
        warn(f"seq.* dropped ({exc!r})")
        return dict.fromkeys(SEQ_KEYS, 0.0)
