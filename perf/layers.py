"""The wrap-target table and the per-layer metrics derived from the spans.

Layers are the ``src/repro`` packages.  ``TARGETS`` is the one place that
names program internals; everything here is used by the traced run only, so
a target a later PR deletes costs its metrics (with a warning), not the
benchmark.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import fmean
from typing import Any, Dict, List

import numpy as np

from .trace import Span, self_times

LAYERS = ("geometry", "semigroup", "cgm", "dist", "query")

_LABEL_LAYER = {
    "search": "dist",
    "construct": "dist",
    "dynamic": "dist",
    "reannotate": "dist",
    "query": "query",
}


def layer_of_label(label: str) -> str:
    """The layer a superstep label's body belongs to (sorts are cgm's)."""
    if ":sort" in label:
        return "cgm"
    return _LABEL_LAYER.get(label.split(":", 1)[0], "cgm")


# -- annotators --------------------------------------------------------------
def _note_phase(span: Span, args, kwargs, result) -> None:
    span.label = kwargs["label"] if "label" in kwargs else args[1]
    span.layer = layer_of_label(span.label)


def _note_exchange(span: Span, args, kwargs, result) -> None:
    span.label = kwargs["label"] if "label" in kwargs else args[1]
    step = args[0].metrics.steps[-1]
    span.attrs = {"h": step.h, "bytes": step.volume_bytes, "rounds": int(step.kind == "comm")}


def _note_sort(span: Span, args, kwargs, result) -> None:
    span.label = kwargs.get("label", args[3] if len(args) > 3 else "sort")


def _note_fold(span: Span, args, kwargs, result) -> None:
    starts, ends = np.asarray(args[2]), np.asarray(args[3])
    span.attrs = {"rows": int(np.maximum(ends - starts, 0).sum())}


def _note_search(span: Span, args, kwargs, result) -> None:
    span.attrs = {
        "subqueries": int(result.total_subqueries),
        "max_per_proc": int(max(result.subqueries_per_proc, default=0)),
        "procs": len(result.subqueries_per_proc),
    }


def _note_construct(span: Span, args, kwargs, result) -> None:
    span.attrs = {
        "hat_nodes": int(result.hat.size_nodes()),
        "forest_records": int(
            sum(el.size_records for store in result.forest_store for el in store.values())
        ),
    }


#: (layer, span name, module, attribute, annotator)
TARGETS = [
    ("geometry", "pad_to_power_of_two", "repro.geometry.rankspace", "pad_to_power_of_two", None),
    ("geometry", "RankedPointSet.to_rank_box", "repro.geometry.rankspace", "RankedPointSet.to_rank_box", None),
    ("semigroup", "lift_kernel_column", "repro.semigroup.kernels", "lift_kernel_column", None),
    ("semigroup", "fold_segments", "repro.semigroup.kernels", "fold_segments", _note_fold),
    ("semigroup", "batched_heap_fold", "repro.semigroup.kernels", "batched_heap_fold", None),
    ("cgm", "Machine.run_phase", "repro.cgm.machine", "Machine.run_phase", _note_phase),
    ("cgm", "Machine.exchange", "repro.cgm.machine", "Machine.exchange", _note_exchange),
    ("cgm", "Machine.exchange_batches", "repro.cgm.machine", "Machine.exchange_batches", _note_exchange),
    ("cgm", "Machine.exchange_weighted", "repro.cgm.machine", "Machine.exchange_weighted", _note_exchange),
    ("cgm", "allgather", "repro.cgm.collectives", "allgather", None),
    ("cgm", "sample_sort_cols", "repro.cgm.sort", "sample_sort_cols", _note_sort),
    ("cgm", "sorted_and_balanced", "repro.cgm.sort", "sorted_and_balanced", None),
    ("dist", "construct_distributed_tree", "repro.dist.construct", "construct_distributed_tree", _note_construct),
    ("dist", "run_search", "repro.dist.search", "run_search", _note_search),
    ("dist", "DistributedRangeTree.build", "repro.dist", "DistributedRangeTree.build", None),
    ("dist", "DistributedRangeTree.run", "repro.dist", "DistributedRangeTree.run", None),
    ("dist", "DynamicDistributedRangeTree.run", "repro.dist.dynamic", "DynamicDistributedRangeTree.run", None),
    ("dist", "DynamicDistributedRangeTree.insert", "repro.dist.dynamic", "DynamicDistributedRangeTree.insert", None),
    ("dist", "DynamicDistributedRangeTree.delete", "repro.dist.dynamic", "DynamicDistributedRangeTree.delete", None),
    ("dist", "DynamicDistributedRangeTree.flush", "repro.dist.dynamic", "DynamicDistributedRangeTree.flush", None),
    ("query", "QueryEngine.plan", "repro.query.engine", "QueryEngine.plan", None),
    ("query", "QueryEngine.execute", "repro.query.engine", "QueryEngine.execute", None),
]

_EXCHANGES = ("Machine.exchange", "Machine.exchange_batches", "Machine.exchange_weighted")
_STEPS = _EXCHANGES + ("Machine.run_phase",)
_FOLDS = ("fold_segments", "batched_heap_fold")


def summarize(spans: List[Span], ops: int) -> Dict[str, float]:
    """Per-layer metrics from one traced pass of ``ops`` ops.

    Times named ``*_per_op`` are sums over the spans tagged ``op`` divided by
    ``ops``; ``*_s`` metrics come from the spans tagged ``setup``.  A span
    name that never occurs contributes 0 — its target was missing (warned at
    install) or the workload never reaches it.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    setup = [s for s in spans if s.tag == "setup"]
    timed = [s for s in spans if s.tag == "op"]
    ops = max(ops, 1)

    def dur(group, names, label_prefix=None, label_is=None, sort=None) -> float:
        total = 0.0
        for s in group:
            if s.name not in names:
                continue
            label = s.label or ""
            if label_prefix is not None and not label.startswith(label_prefix):
                continue
            if label_is is not None and label != label_is:
                continue
            if sort is not None and (":sort" in label) != sort:
                continue
            total += s.dur
        return total

    def self_of(group, names) -> float:
        return sum(own[s.id] for s in group if s.name in names)

    def attr(group, names, key, label_prefix="") -> float:
        return sum(
            s.attrs.get(key, 0)
            for s in group
            if s.name in names and s.attrs and (s.label or "").startswith(label_prefix)
        )

    def count(group, names) -> int:
        return sum(1 for s in group if s.name in names)

    ms = 1000.0 / ops
    out: Dict[str, float] = {}

    # geometry
    out["geometry.rank_s"] = dur(setup, ("pad_to_power_of_two",))
    boxes = count(timed, ("RankedPointSet.to_rank_box",))
    out["geometry.box_us_per_query"] = (
        dur(timed, ("RankedPointSet.to_rank_box",)) * 1e6 / boxes if boxes else 0.0
    )
    # semigroup
    out["semigroup.lift_s"] = dur(setup, ("lift_kernel_column",))
    out["semigroup.fold_ms_per_op"] = self_of(timed, _FOLDS) * ms
    out["semigroup.fold_rows_per_op"] = attr(timed, ("fold_segments",), "rows") / ops
    # cgm
    out["cgm.run_phase_calls_per_op"] = count(timed, ("Machine.run_phase",)) / ops
    out["cgm.exchange_calls_per_op"] = count(timed, _EXCHANGES) / ops
    out["cgm.rounds_per_op"] = attr(timed, _EXCHANGES, "rounds") / ops
    max_h: Dict[int, int] = defaultdict(int)
    for s in timed:
        if s.name in _EXCHANGES and s.attrs:
            max_h[s.op] = max(max_h[s.op], s.attrs["h"])
    out["cgm.max_h_per_op"] = fmean(max_h.values()) if max_h else 0.0
    out["cgm.comm_bytes_per_op"] = attr(timed, _EXCHANGES, "bytes") / ops
    out["cgm.exchange_ms_per_op"] = self_of(timed, _EXCHANGES) * ms
    out["cgm.sort_ms_per_op"] = dur(timed, ("sample_sort_cols",)) * ms
    builds = max(count(setup, ("construct_distributed_tree",)), 1)
    out["cgm.sort_s_per_build"] = (
        dur(setup, ("sample_sort_cols",), label_prefix="construct") / builds
    )
    # dist
    out["dist.construct_s"] = dur(setup, ("construct_distributed_tree",))
    # the first root pass of set-up: `*.run` in process, `execute` under the serve daemon
    first = next(
        (
            s for s in setup
            if s.parent == -1 and (s.name.endswith(".run") or s.name == "QueryEngine.execute")
        ),
        None,
    )
    out["dist.first_op_ms"] = first.dur * 1000.0 if first else 0.0
    search = dur(timed, ("run_search",))
    search_self = self_of(timed, ("run_search",))
    out["dist.search_ms_per_op"] = search * ms
    out["dist.search_self_ms_per_op"] = search_self * ms
    out["dist.search_self_share"] = search_self / search if search else 0.0
    out["dist.walk_ms_per_op"] = dur(timed, _STEPS, label_is="search:walk") * ms
    out["dist.forest_ms_per_op"] = dur(timed, _STEPS, label_is="search:forest") * ms
    out["dist.replicate_ms_per_op"] = dur(timed, _STEPS, label_prefix="search:replicate") * ms
    out["dist.replicate_bytes_per_op"] = (
        attr(timed, _EXCHANGES, "bytes", label_prefix="search:replicate") / ops
    )
    out["dist.subqueries_per_op"] = attr(timed, ("run_search",), "subqueries") / ops
    ratios = [
        s.attrs["max_per_proc"] * s.attrs["procs"] / s.attrs["subqueries"]
        for s in timed
        if s.name == "run_search" and s.attrs and s.attrs["subqueries"]
    ]
    out["dist.subquery_imbalance"] = fmean(ratios) if ratios else 0.0
    built = [s for s in setup if s.name == "construct_distributed_tree" and s.attrs]
    out["dist.hat_nodes"] = built[-1].attrs["hat_nodes"] if built else 0
    out["dist.forest_records"] = built[-1].attrs["forest_records"] if built else 0
    # query
    out["query.plan_ms_per_op"] = dur(timed, ("QueryEngine.plan",)) * ms
    out["query.execute_self_ms_per_op"] = self_of(timed, ("QueryEngine.execute",)) * ms
    out["query.demux_ms_per_op"] = dur(timed, _STEPS, label_prefix="query:demux", sort=False) * ms
    # the closed budget: every timed span's self time lands in exactly one layer
    budget: Dict[str, float] = defaultdict(float)
    for s in timed:
        budget[s.layer] += own[s.id]
    for layer in LAYERS:
        out[f"budget.{layer}_ms_per_op"] = budget[layer] * ms
    # dynamic only: bucket passes nested in a dynamic run, and what is left of it
    dyn_runs = [s for s in timed if s.name == "DynamicDistributedRangeTree.run"]
    if dyn_runs:
        passes = [
            s for s in timed
            if s.name == "DistributedRangeTree.run"
            and s.parent in by_id
            and by_id[s.parent].name == "DynamicDistributedRangeTree.run"
        ]
        out["dist.bucket_passes_per_op"] = len(passes) / ops
        out["dist.dynamic_self_ms_per_op"] = (
            sum(s.dur for s in dyn_runs) - sum(s.dur for s in passes)
        ) * ms
        updates = [s for s in spans if s.tag == "update"]
        out["dist.absorbs"] = count(updates, ("construct_distributed_tree",))
    return out


def timed_root_seconds(spans: List[Span]) -> Dict[int, float]:
    """Op id -> total duration of that op's root spans (seconds)."""
    roots: Dict[int, float] = defaultdict(float)
    for s in spans:
        if s.tag == "op" and s.parent == -1:
            roots[s.op] += s.dur
    return roots


def spans_to_rows(spans: List[Span]) -> List[list]:
    """Compact JSON rows (the serve child ships its spans to the benchmark)."""
    return [
        [s.id, s.name, s.layer, s.label, s.start, s.end, s.parent, s.tag, s.op, s.thread, s.attrs]
        for s in spans
    ]


def rows_to_spans(rows: List[list]) -> List[Span]:
    out = []
    for sid, name, layer, label, start, end, parent, tag, op, thread, attrs in rows:
        s = Span(sid, name, layer, parent, tag, op, thread)
        s.label, s.start, s.end, s.attrs = label, start, end, attrs
        out.append(s)
    return out


def format_budget(metrics: Dict[str, Any]) -> str:
    """The closed per-layer budget as one line per layer."""
    total = sum(metrics[f"budget.{layer}_ms_per_op"] for layer in LAYERS) or 1.0
    return "\n".join(
        f"  budget {layer:<10} {metrics[f'budget.{layer}_ms_per_op']:10.3f} ms/op "
        f"{100.0 * metrics[f'budget.{layer}_ms_per_op'] / total:5.1f}%"
        for layer in LAYERS
    )
