"""The Coarse Grained Multicomputer ``CGM(s, p)`` simulator (§1, *The Model*).

A :class:`Machine` is ``p`` virtual processors executing alternating
*local computation* phases and *global communication* rounds (the paper's
supersteps — the weak-CREW BSP variant of §1).  Algorithms run in SPMD
style: compute phases are named, registered functions over rank-resident
state (:mod:`repro.cgm.phases`) and communication moves only serializable
records::

    mach = Machine(p=8)
    results = mach.run_phase("build", "myalgo.build", payloads)
    inboxes = mach.exchange("route", outboxes)   # outboxes[src][dst] = [records]

Every phase is recorded in the trace of the operation running it (one
:meth:`Machine.scope`: a build, a pass, a refit) — operation counts and
wall-clock per processor for compute phases, per-processor sent/received
record counts (the h-relation) for communication rounds.  The paper's
claims ("O(1) rounds of h-relations with h = s/p", "O(s/p) local work" —
§5, Theorems 2-5) are *measured* per operation, not assumed.

Determinism: records within an inbox arrive ordered by source rank and by
send order within a source, regardless of backend.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, Sequence

from ..errors import MachineError, ProtocolError
from .backend import Backend, make_backend
from .columns import RecordBatch, estimate_box_nbytes
from .metrics import Metrics
from .phases import ProcContext

__all__ = ["Machine", "ProcContext"]


class StateView(Sequence):
    """Lazy per-rank view of one rank-resident state key: the driver's
    one way to read rank state, on every backend.

    The fetch is deferred until someone actually introspects the state
    (the hot pipeline never does) and cached until the next phase.  On
    the serial backend it returns the ranks' live objects; on the
    process backend, pickled copies of the workers' state.
    """

    def __init__(self, machine: "Machine", key: str, default=None) -> None:
        self._machine = machine
        self._key = key
        self._default = default
        self._cache: List[Any] | None = None
        self._cache_gen = -1

    def _load(self) -> List[Any]:
        # Cache per state *generation*: any phase or eviction may have
        # rewritten worker state since the last fetch (a refit does), so
        # a stale snapshot must never be served after one.
        gen = self._machine._state_gen
        if self._cache is None or self._cache_gen != gen:
            default = self._default  # a value or factory for absent entries
            self._cache = [
                v if v is not None else (default() if callable(default) else default)
                for v in self._machine.fetch_state(self._key)
            ]
            self._cache_gen = gen
        return self._cache

    def __len__(self) -> int:
        return len(self._load())

    def __getitem__(self, i):
        return self._load()[i]

    def __iter__(self):
        return iter(self._load())


class Machine:
    """``p`` virtual processors with superstep accounting.

    Parameters
    ----------
    p:
        Number of virtual processors (any positive integer; the distributed
        range tree additionally requires a power of two).
    backend:
        A backend name — "serial" (the default) or "process", see
        :func:`~repro.cgm.backend.available_backends` — or a
        :class:`~repro.cgm.backend.Backend` instance.  A backend created
        here from a name is *owned*: :meth:`close` (and the context
        manager) shuts it down.  A passed-in instance stays the caller's
        responsibility.
    capacity:
        Optional per-processor record capacity (the ``O(s/p)`` memory of
        the model).  Algorithms may call :meth:`check_capacity` to assert
        they stay within it; ``None`` disables the check.
    """

    def __init__(
        self,
        p: int,
        backend: str | Backend = "serial",
        capacity: int | None = None,
    ) -> None:
        if p < 1:
            raise MachineError(f"need at least one processor, got p={p}")
        self.p = p
        self._owns_backend = not isinstance(backend, Backend)
        self.backend = make_backend(backend)
        self.capacity = capacity
        #: where steps go: the open scope's trace, else the machine's own
        self.metrics = self._own_metrics = Metrics()
        #: the trace of the last outermost scope to close
        self.last_metrics = Metrics()
        self._state_gen = 0

    # ------------------------------------------------------------------
    # local computation phases
    # ------------------------------------------------------------------
    def run_phase(
        self, label: str, phase: str, payloads: Sequence[Any] | None = None
    ) -> list:
        """Run the registered compute phase ``phase`` once per processor.

        ``payloads[r]`` is rank ``r``'s input (``None`` for all ranks when
        omitted); the per-rank results come back in rank order.  Payloads
        and results must be serializable records on the process backend —
        anything a rank keeps between phases belongs in its rank-resident
        state, not in the return value.  Charged ops are recorded per
        rank under ``label``, with each rank's share of its host's wall
        (:meth:`~repro.cgm.backend.RankStore.run_block`).
        """
        if payloads is None:
            payloads = [None] * self.p
        if len(payloads) != self.p:
            raise ProtocolError(
                f"run_phase needs one payload per rank ({self.p}), got {len(payloads)}"
            )
        outcomes = self.backend.run_phase(self.p, phase, payloads)
        self._state_gen += 1
        self.metrics.record_compute(
            label, [o[1] for o in outcomes], [o[2] for o in outcomes]
        )
        return [o[0] for o in outcomes]

    # ------------------------------------------------------------------
    # rank-resident state access (driver-side plumbing, not supersteps)
    # ------------------------------------------------------------------
    #: Namespace tokens are process-global, never per-machine: the rank
    #: state store belongs to the *backend*, and one backend instance may
    #: serve several machines — per-machine counters would collide.
    _NS_COUNTER = itertools.count(1)

    def new_ns(self, prefix: str = "t") -> str:
        """A fresh state namespace token (one per tree/structure)."""
        return f"{prefix}{next(Machine._NS_COUNTER)}"

    def fetch_state(self, key: str) -> list:
        """Gather one state key from every rank (live refs on serial)."""
        return self.backend.fetch_state(self.p, key)

    def evict_state(self, key: str) -> None:
        """Delete ``key`` on every rank: the one way the driver changes
        rank state (only phases write it)."""
        self.backend.evict_state(self.p, key)
        self._state_gen += 1

    def state_view(self, key: str, default=None) -> "StateView":
        """Driver-side lazy view of ``key`` on every rank (see :class:`StateView`)."""
        return StateView(self, key, default=default)

    # ------------------------------------------------------------------
    # the communication kernel: one personalized all-to-all round
    # ------------------------------------------------------------------
    def exchange(
        self, label: str, outboxes: Sequence[Sequence[Sequence[Any]]]
    ) -> list[list[Any]]:
        """Route ``outboxes[src][dst]`` record lists; one h-relation.

        Returns ``inboxes[dst]``: the concatenation of all records sent to
        ``dst``, ordered by source rank then send order.  Each record
        counts one unit toward the h-relation (use
        :meth:`exchange_weighted` when records have bulk payloads).
        Routed bytes are recorded per round alongside the record counts —
        estimated structurally here (see
        :func:`~repro.cgm.columns.estimate_box_nbytes`); exact for
        :meth:`exchange_batches`.
        """
        self._validate_outboxes(outboxes)
        sent = [0] * self.p
        sent_bytes = [0] * self.p
        inboxes: list[list[Any]] = [[] for _ in range(self.p)]
        # A broadcast puts one list object in every destination slot: size
        # each distinct list once (the outboxes keep every id alive).
        sized: dict[int, int] = {}
        for src, procbox in enumerate(outboxes):
            for dst, box in enumerate(procbox):
                if box:
                    nbytes = sized.get(id(box))
                    if nbytes is None:
                        nbytes = sized[id(box)] = estimate_box_nbytes(box)
                    sent[src] += len(box)
                    sent_bytes[src] += nbytes
                    inboxes[dst].extend(box)
        received = [len(b) for b in inboxes]
        self.metrics.record_comm(label, sent, received, sent_bytes)
        return inboxes

    def exchange_batches(
        self,
        label: str,
        outboxes: Sequence[Sequence["RecordBatch | None"]],
        template: "RecordBatch | None" = None,
    ) -> list[RecordBatch]:
        """One h-relation of column-packed record batches.

        ``outboxes[src][dst]`` is a :class:`~repro.cgm.columns.RecordBatch`
        (or ``None`` for nothing); the inbox of each destination is the
        *column-wise concatenation* of everything sent to it, ordered by
        source rank — the same deterministic merge as :meth:`exchange`,
        but moving whole arrays.  Each packed record counts one unit
        toward the h-relation, so round/h accounting is identical to
        :meth:`exchange`; routed bytes are exact column sizes.
        ``template`` supplies the schema for destinations that receive
        nothing (any batch of the stream's schema works).

        Inboxes are read-only: a broadcast puts one batch object in every
        destination slot, so every destination of it receives one shared
        inbox (and a lone batch arrives as the sender's own object).
        """
        self._validate_outboxes(outboxes)
        sent = [0] * self.p
        sent_bytes = [0] * self.p
        parts: list[list[RecordBatch]] = [[] for _ in range(self.p)]
        for src, procbox in enumerate(outboxes):
            last = None  # a broadcast repeats one batch: size it once
            for dst, batch in enumerate(procbox):
                if batch is not None:
                    parts[dst].append(batch)
                    if len(batch):
                        if batch is not last:
                            last, nbytes = batch, batch.nbytes
                        sent[src] += len(batch)
                        sent_bytes[src] += nbytes
        if template is None:
            template = next((b for part in parts for b in part), None)
        if template is None:
            raise ProtocolError(
                "exchange_batches needs at least one batch or a template "
                "to shape empty inboxes"
            )
        # one zero-row batch serves every rank that receives nothing, and
        # one concatenation every rank after the first of a broadcast
        # (batches compare by identity, so equal part lists are the same batches)
        nothing = RecordBatch.empty_like(template)
        inboxes: list[RecordBatch] = []
        prev = None
        for part in parts:
            if part != prev:
                merged, prev = (RecordBatch.concat(part) if part else nothing), part
            inboxes.append(merged)
        received = [len(b) for b in inboxes]
        self.metrics.record_comm(label, sent, received, sent_bytes)
        return inboxes

    def exchange_weighted(
        self,
        label: str,
        outboxes: Sequence[Sequence[Sequence[Any]]],
        weight: Callable[[Any], int],
        nbytes: Callable[[Any], int],
    ) -> list[list[Any]]:
        """Like :meth:`exchange` but records carry explicit sizes.

        Used when a logical record contains a bulk payload (e.g. a whole
        forest tree of ``n/p`` points), so h-relation accounting reflects
        true data volume: ``weight`` is a record's h units and ``nbytes``
        its routed bytes.
        """
        self._validate_outboxes(outboxes)
        sent = [0] * self.p
        sent_bytes = [0] * self.p
        received = [0] * self.p
        inboxes: list[list[Any]] = [[] for _ in range(self.p)]
        # one ``weight`` (and one ``nbytes``) call per record: the callback
        # may walk the payload, and sender and receiver share the number
        for src, procbox in enumerate(outboxes):
            for dst, box in enumerate(procbox):
                inboxes[dst].extend(box)
                for rec in box:
                    w = weight(rec)
                    sent[src] += w
                    received[dst] += w
                    sent_bytes[src] += nbytes(rec)
        self.metrics.record_comm(label, sent, received, sent_bytes)
        return inboxes

    def _validate_outboxes(self, outboxes: Sequence[Sequence[Sequence[Any]]]) -> None:
        if len(outboxes) != self.p:
            raise ProtocolError(
                f"outboxes must have one entry per source rank ({self.p}), got {len(outboxes)}"
            )
        for src, procbox in enumerate(outboxes):
            if len(procbox) != self.p:
                raise ProtocolError(
                    f"rank {src} outbox must address all {self.p} ranks, got {len(procbox)}"
                )

    # ------------------------------------------------------------------
    # capacity / storage accounting
    # ------------------------------------------------------------------
    def check_capacity(self, rank: int, records: int) -> None:
        """Assert a processor's local storage stays within CGM(s,p) memory."""
        if self.capacity is not None and records > self.capacity:
            from ..errors import CapacityExceeded

            raise CapacityExceeded(
                f"rank {rank} holds {records} records, capacity {self.capacity}"
            )

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def empty_outboxes(self) -> list[list[list[Any]]]:
        """A fresh ``outboxes[src][dst] = []`` structure."""
        return [[[] for _ in range(self.p)] for _ in range(self.p)]

    @contextmanager
    def scope(self) -> Iterator[Metrics]:
        """Record one operation's steps into a fresh trace, yielded.

        A scope opened inside another adds its steps, in order, to the
        outer one when it closes; when the outermost closes, the trace
        becomes :attr:`last_metrics` and steps go to the machine's own
        log again.  Precondition: a machine runs one operation at a time.
        """
        outer, trace = self.metrics, Metrics()
        self.metrics = trace
        try:
            yield trace
        finally:
            self.metrics = outer
            if outer is self._own_metrics:
                self.last_metrics = trace
            else:
                outer.steps.extend(trace.steps)

    def close(self) -> None:
        """Shut down an *owned* backend (one created here from a name).

        A backend instance passed in by the caller is left running — it
        may be shared by several machines; closing it is the caller's
        job.  Idempotent.
        """
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "Machine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A failing close (terminating half-dead workers can fail in
        # odd ways) must never mask the in-flight exception — a
        # WorkerCrash unwinding through this block is the diagnosis,
        # the secondary close error is noise.
        try:
            self.close()
        except Exception:
            if exc_type is None:
                raise

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Machine(p={self.p}, backend={self.backend.name})"
