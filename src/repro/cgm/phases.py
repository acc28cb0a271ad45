"""The SPMD phase registry: named compute phases over rank-resident state.

The runtime's execution contract (see docs/ARCHITECTURE.md, "Execution
model"): a *compute phase* is a named, registered function

    fn(ctx: ProcContext, payload) -> result

run once per virtual processor by the machine's backend.  ``payload`` is
the per-rank input the driver ships in and ``result`` is what ships back;
both must be picklable under the process backend (in-process backends
pass them by reference).  Everything a rank keeps *between* phases — its
forest elements, its hat replica, replica caches — lives in ``ctx.state``,
a dict owned by the executor: a per-rank store inside the backend for
serial, the worker process's own memory for the process backend.
Only phases write it; the driver reads it through
:meth:`~repro.cgm.machine.Machine.state_view` and removes it with
:meth:`~repro.cgm.machine.Machine.evict_state`.  That is what makes a
true process-parallel backend possible at all: closures cannot cross a
process boundary, but a phase *name* plus a serializable payload can,
and the heavy structures never move.

Phases register at import time under a dotted name (``"cgm.sort.local_cols"``,
``"dist.construct.build_elements_cols"``); worker processes resolve the name
against the same registry after importing :data:`BOOTSTRAP_MODULES`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

__all__ = [
    "ProcContext",
    "register_phase",
    "get_phase",
    "registered_phases",
    "BOOTSTRAP_MODULES",
]

#: Modules a worker process imports on startup so that every phase used by
#: the distributed pipeline is registered before the first dispatch.
#: ``repro.dist`` transitively imports the cgm sort/collectives phases.
#:
#: Under the ``fork`` start method (the default where available) workers
#: inherit the driver's registry, so user phases registered before the
#: first dispatch just work.  Under ``spawn`` they do not: list the
#: modules that register them in the ``REPRO_BOOTSTRAP_MODULES``
#: environment variable (comma-separated import paths).
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

_PHASES: Dict[str, PhaseFn] = {}


def register_phase(name: str) -> Callable[[PhaseFn], PhaseFn]:
    """Decorator: register ``fn`` as the compute phase named ``name``.

    Names are global; re-registering an existing name raises so two
    modules cannot silently shadow each other's phases.
    """

    def deco(fn: PhaseFn) -> PhaseFn:
        existing = _PHASES.get(name)
        if existing is not None and existing is not fn:
            raise ValueError(f"phase {name!r} is already registered")
        _PHASES[name] = fn
        return fn

    return deco


def get_phase(name: str) -> PhaseFn:
    """Resolve a registered phase by name."""
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
    import os

    extra = os.environ.get("REPRO_BOOTSTRAP_MODULES", "")
    for mod in (*BOOTSTRAP_MODULES, *filter(None, extra.split(","))):
        importlib.import_module(mod.strip())
