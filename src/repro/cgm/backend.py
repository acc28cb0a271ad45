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
  *processes*, each a host holding a block of ranks.  Payloads and results cross
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
host holds (:meth:`RankStore.run_block`): per rank, in rank order and before the
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

import pickle
import sys
import time
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Sequence, Tuple

from ..errors import ProtocolError
from ..faults import maybe_inject
from .phases import ProcContext, host_body

__all__ = [
    "Backend",
    "SerialBackend",
    "RankStore",
    "make_backend",
    "available_backends",
]

#: ``(result, charged ops, wall seconds)`` for one rank of one phase.
PhaseOutcome = Tuple[Any, int, float]


class RankStore:
    """One host's rank-resident state, ``{rank: dict}`` (a rank's dict made
    on its first use, never dropped), and the commands a host runs on it:
    the serial backend keeps one for all ``p`` ranks, each process worker
    one for the blocks it holds."""

    def __init__(self) -> None:
        self.states: Dict[int, dict] = {}

    def run(self, command: tuple) -> Any:
        """Run one host command: a method's name, the block, its arguments."""
        name, *args = command
        return getattr(self, name)(*args)

    def block(self, ranks: Sequence[int]) -> List[dict]:
        return [self.states.setdefault(r, {}) for r in ranks]

    def run_block(
        self, ranks: Sequence[int], p: int, phase: str, payloads: Sequence[Any]
    ) -> List[PhaseOutcome]:
        """One host's share of a phase: each rank's fault site in rank
        order, then the body once over the block, its wall split over the
        ranks in proportion to their charged ops (equal shares when none
        charged)."""
        body = host_body(phase)
        ctxs = [ProcContext(rank=r, p=p, state=st) for r, st in zip(ranks, self.block(ranks))]
        for ctx in ctxs:
            maybe_inject(phase, ctx.rank)
        t0 = time.perf_counter()
        results = body(ctxs, payloads)
        wall = time.perf_counter() - t0
        if len(results) != len(ctxs):
            raise ProtocolError(
                f"phase {phase!r} returned {len(results)} results for a block of {len(ctxs)} ranks"
            )
        ops = [ctx.ops for ctx in ctxs]
        total = sum(ops)
        shares = [wall * k / total for k in ops] if total else [wall / len(ops)] * len(ops)
        return list(zip(results, ops, shares))

    def fetch(self, ranks: Sequence[int], key: str) -> List[Any]:
        return [st.get(key) for st in self.block(ranks)]

    def evict(self, ranks: Sequence[int], key: str) -> None:
        for st in self.block(ranks):
            st.pop(key, None)

    def snapshot(self, ranks: Sequence[int]) -> bytes:
        """The whole store pickled, every layout's ranks (for :meth:`restore`)."""
        return pickle.dumps(self.states)

    def restore(self, ranks: Sequence[int], states: bytes) -> None:
        self.states = pickle.loads(states)


class Backend:
    """Abstract executor of compute phases: hosts laid out over the ranks
    (:meth:`blocks`), each running commands on its :class:`RankStore`
    (:meth:`on_hosts`), their replies flattened here into rank order.

    One rank-state contract holds on every backend: only compute phases
    write a rank's state; the driver reads it (``fetch_state``: live
    objects on serial, pickled copies from a worker) and removes it
    (``evict_state``), nothing else.
    """

    name = "abstract"

    def blocks(self, p: int) -> List[range]:
        """The rank layout: each host's block of ranks, in host order."""
        return [range(p)]

    def on_hosts(self, p: int, what: str, command: Callable[[range], tuple]) -> List[Any]:
        """Run ``command(block)`` (:meth:`RankStore.run`) on each host of a
        ``p``-rank machine; one reply per host, in host order."""
        raise NotImplementedError

    def run_phase(
        self, p: int, phase: str, payloads: Sequence[Any]
    ) -> List[PhaseOutcome]:
        hosts = self.on_hosts(
            p, phase, lambda b: ("run_block", b, p, phase, payloads[b.start : b.stop])
        )
        return [outcome for outcomes in hosts for outcome in outcomes]

    def fetch_state(self, p: int, key: str) -> List[Any]:
        """Per-rank value of one state key (``None`` where absent)."""
        hosts = self.on_hosts(p, f"fetch:{key}", lambda b: ("fetch", b, key))
        return [value for values in hosts for value in values]

    def evict_state(self, p: int, key: str) -> None:
        """Delete one state key on every rank, so it leaves no trace."""
        self.on_hosts(p, f"evict:{key}", lambda b: ("evict", b, key))

    def close(self) -> None:  # pragma: no cover - trivial
        pass


class SerialBackend(Backend):
    """One host holding every virtual processor, in-process: a phase runs
    once over the block of all ``p`` ranks."""

    name = "serial"

    def __init__(self) -> None:
        self._store = RankStore()

    def states(self, p: int) -> List[dict]:
        """The first ``p`` rank stores (grown on demand, never shrunk —
        a backend may serve a p=8 machine and a p=4 machine in turn)."""
        return self._store.block(range(p))

    def on_hosts(self, p: int, what: str, command: Callable[[range], tuple]) -> List[Any]:
        return [self._store.run(command(block)) for block in self.blocks(p)]


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
