"""The SPMD phase registry: named compute phases over rank-resident state.

The runtime's execution contract (see docs/ARCHITECTURE.md, "Execution
model"): a *compute phase* is a named, registered function that a
**host** runs once over the block of virtual processors it holds — the
serial backend is one host holding all ``p`` ranks, each process worker
a host holding a block of them.  A phase is written in one of two forms:

* per rank, ``fn(ctx: ProcContext, payload) -> result``
  (:func:`register_phase`): the host runs it for each rank of its block,
  in rank order (:func:`host_body`'s one shared loop);
* per host, ``fn(ctxs, payloads) -> results`` (:func:`register_host_phase`):
  one call over the block, ``ctxs[i]``/``payloads[i]`` the ``i``-th rank
  of the block, one result per rank back — the form that pays a numpy
  call's fixed cost once per host instead of once per rank (Search's two
  walks).  The body charges each rank's ``ctx`` what that rank's share
  of the work would charge alone, and returns what that rank alone would
  return: the block changes where the ranks run, never what they emit.

``payload`` is the per-rank input the driver ships in and ``result`` is
what ships back; both must be picklable under the process backend
(in-process backends pass them by reference).  Everything a rank keeps
*between* phases — its forest elements, its hat replica, replica caches
— lives in ``ctx.state``, a dict owned by the executor: a per-rank store
inside the backend for serial, the worker process's own memory for the
process backend.  Only phases write it; the driver reads it through
:meth:`~repro.cgm.machine.Machine.state_view` and removes it with
:meth:`~repro.cgm.machine.Machine.evict_state`.  That is what makes a
true process-parallel backend possible at all: closures cannot cross a
process boundary, but a phase *name* plus a serializable payload can,
and the heavy structures never move.

Phases register at import time under a dotted name (``"cgm.sort.local_cols"``,
``"dist.construct.build_elements_cols"``); worker processes resolve the name
against the same registry after importing :data:`BOOTSTRAP_MODULES` (a
forked worker also inherits whatever the driver registered before it
started).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Set, Tuple

__all__ = [
    "ProcContext",
    "register_phase",
    "register_host_phase",
    "get_phase",
    "registered_phases",
    "host_body",
    "BOOTSTRAP_MODULES",
]

#: Modules a worker process imports on startup so that every phase used by
#: the distributed pipeline is registered before the first dispatch.
#: ``repro.dist`` transitively imports the cgm sort/collectives phases.
#:
#: Workers start by ``fork`` where the platform offers it and inherit the
#: driver's registry, so user phases registered before the first dispatch
#: just work.  Under ``spawn`` (the fallback) a worker knows only the
#: phases these modules register.
BOOTSTRAP_MODULES: Tuple[str, ...] = ("repro.dist", "repro.query.engine")


@dataclass
class ProcContext:
    """Handle passed to per-processor compute phases.

    ``charge(k)`` adds ``k`` abstract operations to this processor's work
    account for the current phase; the data structures charge node visits,
    records scanned, etc.  ``rank``/``p`` identify the processor, and
    ``state`` is the rank-resident store that persists across phases.
    """

    rank: int
    p: int
    ops: int = 0
    state: dict = field(default_factory=dict)

    def charge(self, k: int = 1) -> None:
        self.ops += k


PhaseFn = Callable[[ProcContext, Any], Any]
HostFn = Callable[[Sequence[ProcContext], Sequence[Any]], List[Any]]

_PHASES: Dict[str, Callable] = {}
#: The names registered per host (:func:`register_host_phase`).
_HOST_PHASES: Set[str] = set()


def register_phase(name: str) -> Callable[[PhaseFn], PhaseFn]:
    """Decorator: register ``fn(ctx, payload)`` as the compute phase named
    ``name``, run once per rank of a host's block.

    Names are global; re-registering an existing name raises so two
    modules cannot silently shadow each other's phases.
    """
    return _registrar(name, host=False)


def register_host_phase(name: str) -> Callable[[HostFn], HostFn]:
    """Decorator: register ``fn(ctxs, payloads) -> results`` as the compute
    phase named ``name``, run once per host over its block of ranks."""
    return _registrar(name, host=True)


def _registrar(name: str, host: bool) -> Callable:
    def deco(fn: Callable) -> Callable:
        existing = _PHASES.get(name)
        if existing is not None and existing is not fn:
            raise ValueError(f"phase {name!r} is already registered")
        _PHASES[name] = fn
        if host:
            _HOST_PHASES.add(name)
        return fn

    return deco


def host_body(name: str) -> HostFn:
    """Phase ``name`` as one call over a host's block: a host body as
    registered, a per-rank body lifted by the one shared loop (each rank
    of the block in turn, in block order)."""
    fn = get_phase(name)
    if name in _HOST_PHASES:
        return fn
    return lambda ctxs, payloads: [fn(ctx, payload) for ctx, payload in zip(ctxs, payloads)]


def get_phase(name: str) -> Callable:
    """Resolve a registered phase by name (in the form it was registered)."""
    try:
        return _PHASES[name]
    except KeyError:
        raise KeyError(
            f"unknown compute phase {name!r}; registered: "
            f"{', '.join(sorted(_PHASES)) or '(none)'}"
        ) from None


def registered_phases() -> Tuple[str, ...]:
    """The sorted names of every registered phase."""
    return tuple(sorted(_PHASES))


def bootstrap() -> None:
    """Import every phase-defining module (worker-process startup)."""
    import importlib

    for mod in BOOTSTRAP_MODULES:
        importlib.import_module(mod)
