"""Execution backends for the virtual processors.

A backend executes the machine's compute phases — named, registered
functions ``fn(ctx, payload) -> result`` (see :mod:`repro.cgm.phases`) —
and owns the **rank-resident state** those phases read and write between
supersteps.  Two implementations ship, each under one name (the
factory's error message and the CLI's ``--backend`` choices both read
:func:`available_backends`, so they can never drift from the real set):

* :class:`SerialBackend` — one host holding all ``p`` ranks, in-process.
  Deterministic, zero overhead, the default for tests and benches.
* :class:`~repro.cgm.process.ProcessBackend` — persistent worker
  *processes*, each a host holding one rank.  Payloads and results cross
  the boundary by pickle; rank state lives in the worker and never moves,
  so no rank can reach another's state.  This is the backend that turns the theorems'
  measured speedups into wall-clock speedups.  Its module loads only
  when one is made, so an in-process run never compiles it.

Transport note: the columnar data plane (:mod:`repro.cgm.columns`) makes
the pickle boundary cheap by construction — record traffic crosses as
:class:`~repro.cgm.columns.RecordBatch` payloads, so one phase dispatch
serializes a handful of numpy column arrays (O(1) objects) instead of an
object list with one dataclass per record.  The backends need no special
casing: a batch is just a payload whose pickle happens to be flat.

A backend runs a phase once per **host**, over the block of ranks the
host holds (:func:`run_block`): per rank, in rank order and before the
body runs, it fires the fault site ``maybe_inject(phase, rank)``; the
body runs once over the block (:func:`~repro.cgm.phases.host_body`);
each rank's charged ops are its own ``ctx``'s, exactly as if it had run
alone.  Wall-clock is measured per host, not per processor: the host's
wall is split over its ranks in proportion to their charged ops (equal
shares when none charged), so a step's ``seconds`` sum to the wall its
hosts spent and a rank's share reads its part of the work at the host's
pace.

Both backends must produce bit-identical results and identical charged
ops, rounds, h and bytes; tests assert this.
"""

from __future__ import annotations

import sys
import time
from types import MappingProxyType
from typing import Any, List, Sequence, Tuple

from ..errors import ProtocolError
from ..faults import maybe_inject
from .phases import HostFn, ProcContext, host_body

__all__ = [
    "Backend",
    "SerialBackend",
    "make_backend",
    "available_backends",
    "run_block",
]

#: ``(result, charged ops, wall seconds)`` for one rank of one phase.
PhaseOutcome = Tuple[Any, int, float]


def run_block(
    body: HostFn, ctxs: Sequence[ProcContext], payloads: Sequence[Any], site: str
) -> List[PhaseOutcome]:
    """One host's share of a phase: each rank's fault site in rank order,
    then ``body`` once over the block, its wall split over the ranks in
    proportion to their charged ops (equal shares when none charged)."""
    for ctx in ctxs:
        maybe_inject(site, ctx.rank)
    t0 = time.perf_counter()
    results = body(ctxs, payloads)
    wall = time.perf_counter() - t0
    if len(results) != len(ctxs):
        raise ProtocolError(
            f"phase {site!r} returned {len(results)} results for a block of {len(ctxs)} ranks"
        )
    ops = [ctx.ops for ctx in ctxs]
    total = sum(ops)
    shares = [wall * k / total for k in ops] if total else [wall / len(ops)] * len(ops)
    return list(zip(results, ops, shares))


class Backend:
    """Abstract executor of compute phases, once per host over the ranks
    it holds (:func:`run_block`).

    One rank-state contract holds on every backend: only compute phases
    write a rank's state; the driver reads it (``fetch_state``: live
    objects on serial, pickled copies from a worker) and removes it
    (``evict_state``), nothing else.
    """

    name = "abstract"

    def run_phase(
        self, p: int, phase: str, payloads: Sequence[Any]
    ) -> List[PhaseOutcome]:
        raise NotImplementedError

    def fetch_state(self, p: int, key: str) -> List[Any]:
        """Per-rank value of one state key (``None`` where absent)."""
        raise NotImplementedError

    def evict_state(self, p: int, key: str) -> None:
        """Delete one state key on every rank, so it leaves no trace."""
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial
        pass


class SerialBackend(Backend):
    """One host holding every virtual processor, in-process: a phase runs
    once over the block of all ``p`` ranks."""

    name = "serial"

    def __init__(self) -> None:
        self._states: List[dict] = []

    def states(self, p: int) -> List[dict]:
        """The first ``p`` rank stores (grown on demand, never shrunk —
        a backend may serve a p=8 machine and a p=4 machine in turn)."""
        self._states.extend(dict() for _ in range(p - len(self._states)))
        return self._states[:p]

    def run_phase(
        self, p: int, phase: str, payloads: Sequence[Any]
    ) -> List[PhaseOutcome]:
        body = host_body(phase)
        ctxs = [ProcContext(rank=r, p=p, state=st) for r, st in enumerate(self.states(p))]
        return run_block(body, ctxs, payloads, phase)

    def fetch_state(self, p: int, key: str) -> List[Any]:
        return [st.get(key) for st in self.states(p)]

    def evict_state(self, p: int, key: str) -> None:
        for st in self.states(p):
            st.pop(key, None)


# ---------------------------------------------------------------------------
# the backends by name
# ---------------------------------------------------------------------------
#: Each backend's name and the class :mod:`repro.cgm` exports for it;
#: resolved through the package, so ``cgm/process.py`` loads only when a
#: process backend is made.
_BACKENDS = MappingProxyType({"serial": "SerialBackend", "process": "ProcessBackend"})


def available_backends() -> list[str]:
    """Sorted names of every backend :func:`make_backend` accepts."""
    return sorted(_BACKENDS)


def make_backend(spec: "str | Backend") -> Backend:
    """Backend factory: accepts a backend name or an instance."""
    if isinstance(spec, Backend):
        return spec
    try:
        cls = _BACKENDS[spec]
    except KeyError:
        raise ValueError(
            f"unknown backend {spec!r}; choose one of "
            + ", ".join(repr(n) for n in available_backends())
        ) from None
    return getattr(sys.modules[__package__], cls)()
