"""Pluggable output modes and their registry.

The paper's output modes (count — Theorem 4 with ⊕ = + —, report —
Theorem 5 —, associative function — Theorem 4) differ only in how the
selection pieces Algorithm Search leaves on the machine are turned into
per-query answers.  An :class:`OutputMode` captures exactly that
difference, in two families:

* **fold family** (count, aggregate, topk): each hat/forest selection
  contributes one semigroup value; all pieces of the batch go through a
  *single* shared sort-and-segmented-fold
  (:func:`repro.dist.modes.fold_sorted_runs`).
* **report family** (report, sample): selections expand into point ids
  — forest selections locally, hat selections via in-pass
  :class:`~repro.dist.records.ExpandRequest` routing — and the per-id
  pieces ride the *same* shared sort, harvested directly from its
  balanced output (Theorem 5's ``ceil(k/p)``-per-processor term).

New modes register with :func:`register_mode` and plug in without
touching ``search.py`` or the engine: the engine only ever talks to the
:class:`QuerySpec` a mode builds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

from ..errors import ReproError
from ..semigroup import Semigroup, top_k_ids
from .descriptors import Query

__all__ = [
    "OutputMode",
    "QuerySpec",
    "register_mode",
    "get_mode",
    "registered_modes",
    "CountMode",
    "AggregateMode",
    "ReportMode",
    "TopKMode",
    "SampleReportMode",
]


@dataclass
class QuerySpec:
    """Everything the engine needs to demultiplex one query's answer.

    A query folds or it reports: ``piece_value`` reads a fold piece off
    a selection row (hat and forest selections alike — ``nleaves`` and
    ``agg`` are what both carry); ``report_pids`` instead marks the
    query in the pass's report mask, and its pieces are the ``(qid,
    pid)`` pairs Algorithm Search emits.  ``combine``/``default`` drive
    the shared segmented fold; ``finalize`` maps the folded value to the
    user-visible answer.
    """

    qid: int
    query: Query
    mode: "OutputMode"
    combine: Callable[[Any, Any], Any]
    default: Any
    finalize: Callable[[Any], Any]
    piece_value: Callable[[Any], Any] | None = None
    report_pids: bool = False
    #: The semigroup this query folds (``None`` when the mode needs no
    #: annotation, e.g. count).  Lets the engine resolve a columnar
    #: kernel for the query's pieces; modes that leave it unset simply
    #: keep the object fold path.
    semigroup: Semigroup | None = None


class OutputMode:
    """Base class for output modes; subclass and :func:`register_mode`.

    ``required_semigroup`` names the annotation the mode folds (fold
    family); a non-build semigroup makes the engine refit the tree's
    annotations lazily before the pass.  A report-family mode says so
    in the spec it builds (``report_pids``).
    """

    name: str = ""

    def validate(self, query: Query, dim: int) -> None:
        """Reject malformed queries early (box/dimension checks are global)."""

    def required_semigroup(self, query: Query, base: Semigroup) -> Semigroup | None:
        """The semigroup whose annotation this query folds, if any."""
        return None

    def spec(
        self,
        query: Query,
        qid: int,
        semigroup: Semigroup | None,
        extract: Callable[[Any], Any],
    ) -> QuerySpec:
        """Build the demux spec; ``extract`` projects a node annotation
        value onto ``semigroup``'s component (identity when the tree's
        annotation *is* that semigroup)."""
        raise NotImplementedError


class CountMode(OutputMode):
    """Theorem 4 with ⊕ = +: leaf counts need no annotation at all."""

    name = "count"

    def spec(self, query, qid, semigroup, extract) -> QuerySpec:
        return QuerySpec(
            qid=qid,
            query=query,
            mode=self,
            combine=lambda a, b: a + b,
            default=0,
            finalize=lambda v: v,
            piece_value=lambda sel: sel.nleaves,
        )


class AggregateMode(OutputMode):
    """Associative-function mode over a per-query (or build-time) semigroup."""

    name = "aggregate"

    def required_semigroup(self, query, base):
        return query.semigroup if query.semigroup is not None else base

    def spec(self, query, qid, semigroup, extract) -> QuerySpec:
        return QuerySpec(
            qid=qid,
            query=query,
            mode=self,
            combine=semigroup.combine,
            default=semigroup.identity,
            finalize=lambda v: v,
            piece_value=lambda sel: extract(sel.agg),
            semigroup=semigroup,
        )


class ReportMode(OutputMode):
    """Theorem 5: the matching point ids, globally sorted per query."""

    name = "report"

    def validate(self, query, dim):
        limit = query.option("limit")
        if limit is not None and limit < 0:
            raise ReproError(f"report limit must be >= 0, got {limit}")

    def finalize_ids(self, ids: List[int], query: Query) -> Any:
        limit = query.option("limit")
        return ids if limit is None else ids[:limit]

    def spec(self, query, qid, semigroup, extract) -> QuerySpec:
        # report_pids queries bypass the segmented fold entirely: their
        # per-id pieces are harvested straight from the balanced sort
        # output, so combine is never called for them.
        return QuerySpec(
            qid=qid,
            query=query,
            mode=self,
            combine=lambda a, b: a + b,
            default=(),
            finalize=lambda v: self.finalize_ids(sorted(v), query),
            report_pids=True,
        )


class TopKMode(AggregateMode):
    """The k matching points smallest in one coordinate.

    Proof that modes plug in without touching the engine or ``search.py``:
    sugar over the fold family with the :func:`~repro.semigroup.top_k_ids`
    semigroup resolved from the query's options.
    """

    name = "topk"

    def validate(self, query, dim):
        k = query.option("k")
        if not k or k < 1:
            raise ReproError(f"topk needs option k >= 1, got {k!r}")
        d = query.option("dim", 0)
        if not 0 <= d < dim:
            raise ReproError(f"topk dim {d} out of range for {dim}-d tree")

    def required_semigroup(self, query, base):
        return top_k_ids(query.option("k"), query.option("dim", 0))

    def spec(self, query, qid, semigroup, extract) -> QuerySpec:
        base = super().spec(query, qid, semigroup, extract)
        base.finalize = lambda v: [pid for _coord, pid in v]
        return base


class SampleReportMode(ReportMode):
    """A deterministic sample of ``k`` matching ids (seeded)."""

    name = "sample"

    def validate(self, query, dim):
        k = query.option("k")
        if not k or k < 1:
            raise ReproError(f"sample needs option k >= 1, got {k!r}")

    def finalize_ids(self, ids, query):
        k = query.option("k")
        if len(ids) <= k:
            return ids
        rng = random.Random(query.option("seed", 0))
        return sorted(rng.sample(ids, k))


_REGISTRY: Dict[str, OutputMode] = {}


def register_mode(mode: OutputMode, replace: bool = False) -> OutputMode:
    """Register an output mode under ``mode.name``.

    Third-party modes call this at import time; ``replace=True`` permits
    overriding a built-in (tests use it to restore state).
    """
    if not mode.name:
        raise ReproError("an OutputMode must define a non-empty name")
    if mode.name in _REGISTRY and not replace:
        raise ReproError(f"output mode {mode.name!r} is already registered")
    _REGISTRY[mode.name] = mode
    return mode


def get_mode(name: str) -> OutputMode:
    """Look up a registered output mode by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ReproError(
            f"unknown output mode {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_modes() -> Dict[str, OutputMode]:
    """Snapshot of the registry (name -> mode)."""
    return dict(_REGISTRY)


for _mode in (CountMode(), AggregateMode(), ReportMode(), TopKMode(), SampleReportMode()):
    register_mode(_mode)
