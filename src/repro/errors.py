"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures distinctly from
programming mistakes (``TypeError`` etc. still propagate as usual).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GeometryError",
    "DimensionMismatch",
    "EmptyPointSet",
    "MachineError",
    "PowerOfTwoError",
    "CapacityExceeded",
    "ProtocolError",
    "WorkerCrash",
    "InjectedFault",
    "ServeError",
    "Overloaded",
    "DeadlineExceeded",
    "QueryFailed",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Every subclass pickles as it is: its message and attributes, not its
    constructor's arguments, cross a process boundary (a phase that
    raises on a worker raises the same error in the driver).
    """

    def __reduce__(self):
        return _restore, (type(self), self.args), self.__dict__


def _restore(cls: type, args: tuple) -> ReproError:
    """An unpickled :class:`ReproError`: made without its ``__init__``,
    its attributes set from the pickled state afterwards."""
    return cls.__new__(cls, *args)


class GeometryError(ReproError):
    """Invalid geometric input (malformed box, bad coordinates, ...)."""


class DimensionMismatch(GeometryError):
    """Objects of different dimensionality were combined."""

    def __init__(self, expected: int, got: "int | tuple", what: str = "object") -> None:
        super().__init__(f"expected {what} of dimension {expected}, got {got}")
        self.expected = expected
        self.got = got


class EmptyPointSet(GeometryError):
    """An operation that needs at least one point received none."""


class MachineError(ReproError):
    """Errors raised by the CGM machine simulator."""


class PowerOfTwoError(ReproError):
    """A size that must be a power of two was not.

    The distributed range tree of the paper assumes ``n = 2^k`` (Section 3)
    and a power-of-two processor count so that hat levels align with forest
    boundaries.  Use :func:`repro.geometry.rankspace.pad_to_power_of_two`
    to pad arbitrary point sets.
    """

    def __init__(self, what: str, value: int) -> None:
        super().__init__(f"{what} must be a power of two, got {value}")
        self.what = what
        self.value = value


class CapacityExceeded(MachineError):
    """A virtual processor exceeded its configured local memory bound."""


class ProtocolError(MachineError):
    """A collective was invoked inconsistently across virtual processors."""


class WorkerCrash(MachineError):
    """A worker process died (or stopped responding) mid-command.

    Raised by the supervised :class:`~repro.cgm.process.ProcessBackend`
    instead of hanging on a dead pipe: ``ranks`` is the block of virtual
    processors the lost worker held (``rank`` its first), ``phase`` the
    command it was executing (a phase name, or ``"evict"``/``"fetch"``
    for state plumbing), ``exit_code`` the process exit status when the
    worker actually died (``-9`` for SIGKILL; ``None`` when the worker is
    alive but missed the configured reply timeout).
    """

    def __init__(
        self,
        rank: int,
        phase: str,
        exit_code: "int | None" = None,
        reason: str = "worker died mid-command",
        ranks: "tuple[int, ...] | None" = None,
    ) -> None:
        detail = (
            f"exit code {exit_code}" if exit_code is not None else "no exit"
        )
        self.ranks = ranks or (rank,)
        who = f"rank {rank}" if len(self.ranks) == 1 else f"ranks {rank}-{self.ranks[-1]}"
        super().__init__(f"{who} crashed during {phase!r}: {reason} ({detail})")
        self.rank = rank
        self.phase = phase
        self.exit_code = exit_code
        self.reason = reason


class InjectedFault(ReproError):
    """A fault deliberately raised by :mod:`repro.faults`.

    Chaos tests match on this type to distinguish injected failures from
    organic bugs; ``site`` and ``rank`` identify the dispatch that fired.
    """

    def __init__(self, site: str, rank: "int | None", message: str = "") -> None:
        where = f"{site}" if rank is None else f"{site} on rank {rank}"
        super().__init__(message or f"injected fault at {where}")
        self.site = site
        self.rank = rank


class ServeError(ReproError):
    """Errors raised by the query-service layer (:mod:`repro.serve`):
    submissions to a closed daemon, malformed wire requests, failed
    remote queries surfaced client-side."""


class Overloaded(ServeError):
    """The daemon shed a submission: ``max_inflight`` queries are already
    admitted.  Clients may retry with backoff
    (:meth:`repro.serve.ServeClient.request` does, when configured)."""

    def __init__(self, inflight: int, max_inflight: int) -> None:
        super().__init__(
            f"service overloaded: {inflight} queries in flight "
            f"(max_inflight={max_inflight}); retry later"
        )
        self.inflight = inflight
        self.max_inflight = max_inflight


class DeadlineExceeded(ServeError):
    """A query's ``deadline_ms`` expired before its batch executed.

    The query was never planned or executed past its deadline — the
    answer is a typed error, not a late result."""

    def __init__(self, deadline_ms: float, waited_ms: float) -> None:
        super().__init__(
            f"deadline of {deadline_ms:g}ms exceeded after "
            f"{waited_ms:.1f}ms in queue"
        )
        self.deadline_ms = deadline_ms
        self.waited_ms = waited_ms


class QueryFailed(ServeError):
    """One query poisoned its batch: the engine pass raised, and bisection
    isolated the failure to this query.  Batch-mates were re-executed and
    answered normally; ``query_id`` is the service-assigned id of the
    offending query."""

    def __init__(self, query_id: int, message: str) -> None:
        super().__init__(f"query {query_id} failed: {message}")
        self.query_id = query_id
        self.detail = message
