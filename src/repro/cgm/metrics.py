"""Superstep metrics: the observables the paper's theorems talk about (§5).

Every compute phase and every communication round executed on a
:class:`~repro.cgm.machine.Machine` appends a :class:`StepRecord` to the
trace of the operation running it (one build, one pass, one refit — see
:meth:`~repro.cgm.machine.Machine.scope`).  Per operation, as Theorems
2-5 state them, the experiment harness reads off:

* ``rounds``          — number of communication supersteps (Theorems 2-5
                        claim these are O(1), independent of n),
* ``max_h``           — the largest h-relation routed (claimed O(s/p)),
* ``max_work``        — max per-processor charged operations summed over
                        compute steps (claimed O(s/p), O(s log n / p), ...),
* ``modeled_time(cost)`` — the BSP cost under the given
                        :class:`~repro.cgm.cost.CostModel`,
* ``total_comm_bytes`` — routed **bytes** summed over rounds.  The
                        theorems charge rounds by communication *volume*;
                        for batch rounds the byte figure is exact
                        (column array sizes), while record-list rounds
                        carry a sampled structural estimate
                        (:func:`repro.cgm.columns.estimate_box_nbytes`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from .._util import percentiles
from .cost import CostModel

__all__ = ["StepRecord", "Metrics", "LatencyStats", "phase_of"]

KIND_COMPUTE = "compute"
KIND_COMM = "comm"


def phase_of(label: str) -> str:
    """The phase a step label belongs to: the prefix before the first ``:``.

    Every algorithm labels its supersteps ``phase:step`` (``search:walk``,
    ``query:demux:fold``, ``construct:route``); the phase prefix is the
    attribution unit the query layer reports per batch.
    """
    return label.split(":", 1)[0]


@dataclass(frozen=True)
class StepRecord:
    """One superstep: either a compute phase or a communication round."""

    kind: str  # "compute" | "comm"
    label: str
    #: per-processor charged operation counts (compute) — empty for comm
    ops: tuple[int, ...] = ()
    #: per-processor wall-clock seconds (compute) — empty for comm
    seconds: tuple[float, ...] = ()
    #: per-processor records sent / received (comm) — empty for compute
    sent: tuple[int, ...] = ()
    received: tuple[int, ...] = ()
    #: per-processor bytes sent (comm) — empty when unaccounted
    sent_bytes: tuple[int, ...] = ()

    @property
    def phase(self) -> str:
        """Phase attribution of this step (see :func:`phase_of`)."""
        return phase_of(self.label)

    @property
    def h(self) -> int:
        """The h of the h-relation: max records sent or received by any proc."""
        if self.kind != KIND_COMM:
            return 0
        return max(max(self.sent, default=0), max(self.received, default=0))

    @property
    def volume(self) -> int:
        """Total records moved in this round."""
        return sum(self.sent)

    @property
    def volume_bytes(self) -> int:
        """Total bytes routed in this round (0 when unaccounted)."""
        return sum(self.sent_bytes)

    @property
    def max_ops(self) -> int:
        return max(self.ops, default=0)

    @property
    def total_ops(self) -> int:
        return sum(self.ops)

    @property
    def max_seconds(self) -> float:
        return max(self.seconds, default=0.0)


#: How many of its latest samples a :class:`LatencyStats` keeps for its
#: percentiles: a long-lived daemon's memory must not grow with uptime.
LATENCY_WINDOW = 4096


class LatencyStats:
    """Per-query latency accounting with percentile summaries.

    The superstep trace above measures what the *theorems* talk about —
    rounds, h-relations, charged work per pass.  A serving front-end
    (:mod:`repro.serve`) additionally owes each *client* a latency
    figure: how long their one query waited in the queue plus how long
    the shared pass took.  This accumulator records one sample
    per query (milliseconds) and summarises with the shared
    :func:`repro._util.percentiles` estimator, so serve metrics and
    loadgen rows report the same p50/p95/p99 definition.  ``count``,
    ``mean_ms`` and ``max_ms`` cover every sample; the percentiles cover
    the last :data:`LATENCY_WINDOW`, all ``values_ms`` keeps.
    """

    __slots__ = ("name", "values_ms", "count", "_total_ms", "max_ms")

    def __init__(self, name: str = "latency") -> None:
        self.name = name
        self.values_ms: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self.count = 0
        self._total_ms = 0.0
        self.max_ms = 0.0

    def record(self, ms: float) -> None:
        ms = float(ms)
        self.values_ms.append(ms)
        self.count += 1
        self._total_ms += ms
        self.max_ms = max(self.max_ms, ms)

    @property
    def mean_ms(self) -> float:
        return self._total_ms / self.count if self.count else 0.0

    def percentiles(self, pcts=(50, 95, 99)) -> dict:
        """``{"p50": ..., ...}`` over the window (``None`` if empty)."""
        return percentiles(self.values_ms, pcts)

    def summary(self) -> dict:
        """Flat dict for serve metrics / loadgen rows (``*_ms`` keys)."""
        pct = self.percentiles()
        out = {"count": self.count, "mean_ms": round(self.mean_ms, 4)}
        for key, val in pct.items():
            out[f"{key}_ms"] = None if val is None else round(val, 4)
        out["max_ms"] = round(self.max_ms, 4)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LatencyStats({self.name!r}, n={self.count}, mean={self.mean_ms:.3f}ms)"


@dataclass
class Metrics:
    """The superstep trace of one operation (or of a machine's raw calls)."""

    steps: list[StepRecord] = field(default_factory=list)

    # -- recording ---------------------------------------------------------
    def record_compute(self, label: str, ops: list[int], seconds: list[float]) -> None:
        self.steps.append(
            StepRecord(
                kind=KIND_COMPUTE,
                label=label,
                ops=tuple(ops),
                seconds=tuple(seconds),
            )
        )

    def record_comm(
        self,
        label: str,
        sent: list[int],
        received: list[int],
        sent_bytes: "list[int] | None" = None,
    ) -> None:
        self.steps.append(
            StepRecord(
                kind=KIND_COMM,
                label=label,
                sent=tuple(sent),
                received=tuple(received),
                sent_bytes=tuple(sent_bytes) if sent_bytes is not None else (),
            )
        )

    # -- aggregate views -----------------------------------------------------
    def comm_steps(self) -> Iterator[StepRecord]:
        return (s for s in self.steps if s.kind == KIND_COMM)

    def compute_steps(self) -> Iterator[StepRecord]:
        return (s for s in self.steps if s.kind == KIND_COMPUTE)

    @property
    def rounds(self) -> int:
        """Number of communication rounds (the paper's superstep count)."""
        return sum(1 for _ in self.comm_steps())

    @property
    def max_h(self) -> int:
        """Largest h-relation across all rounds."""
        return max((s.h for s in self.comm_steps()), default=0)

    @property
    def total_volume(self) -> int:
        return sum(s.volume for s in self.comm_steps())

    @property
    def total_comm_bytes(self) -> int:
        """Bytes routed across all rounds (the Theorem 2-5 volume figure)."""
        return sum(s.volume_bytes for s in self.comm_steps())

    @property
    def max_work(self) -> int:
        """Sum over compute steps of the max per-processor ops."""
        return sum(s.max_ops for s in self.compute_steps())

    @property
    def total_work(self) -> int:
        return sum(s.total_ops for s in self.compute_steps())

    @property
    def critical_seconds(self) -> float:
        """Ideal parallel wall-clock: per step, the slowest processor."""
        return sum(s.max_seconds for s in self.compute_steps())

    def modeled_time(self, cost: CostModel) -> float:
        """BSP cost of the whole trace (ops + g·h + L per round)."""
        t = 0.0
        for s in self.steps:
            if s.kind == KIND_COMPUTE:
                t += s.max_ops
            else:
                t += cost.g * s.h + cost.L
        return t

    def summary(self) -> dict:
        """Flat dict of the totals (one table row, one JSON object)."""
        return {
            "rounds": self.rounds,
            "max_h": self.max_h,
            "volume": self.total_volume,
            "comm_bytes": self.total_comm_bytes,
            "max_work": self.max_work,
            "total_work": self.total_work,
            "critical_seconds": round(self.critical_seconds, 6),
        }

    # -- phase attribution ---------------------------------------------------
    def phase_sequence(self) -> list[str]:
        """Run-length-compressed phase prefixes, in execution order.

        ``["search", "query"]`` means one contiguous ``search:*`` step
        sequence followed by one ``query:*`` sequence — the observable
        behind "a mixed batch runs a *single* Algorithm Search pass":
        the sequence contains ``"search"`` exactly once.
        """
        seq: list[str] = []
        for s in self.steps:
            ph = s.phase
            if not seq or seq[-1] != ph:
                seq.append(ph)
        return seq

    def by_phase(self) -> dict[str, "Metrics"]:
        """Steps grouped into per-phase sub-traces, insertion-ordered."""
        groups: dict[str, Metrics] = {}
        for s in self.steps:
            groups.setdefault(s.phase, Metrics()).steps.append(s)
        return groups

    def phase_summary(self) -> dict[str, dict]:
        """Per-phase rounds / h / work attribution (flat, table-ready)."""
        return {ph: m.summary() for ph, m in self.by_phase().items()}
