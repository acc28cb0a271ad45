"""Pluggable output modes and their registry.

In the paper an output mode is one of two things (§5): ``⊕ f(point)``
over a commutative semigroup (Theorem 4; count is ⊕ = + over leaf
counts) or the list of matching points (Theorem 5).  An
:class:`OutputMode` says which, and nothing about *how*:

* **fold family** (count, aggregate, topk): the mode names its semigroup
  (:meth:`OutputMode.required_semigroup`; ``None`` folds the selections'
  leaf counts under :data:`~repro.semigroup.COUNT`).  The engine's plan
  groups the batch by semigroup; every rank folds its own pieces of a
  query (:func:`~repro.semigroup.kernels.fold_segments`, under the
  group's kernel, typed or object), the partial values meet at the
  query's home rank in one round and fold once more.
* **report family** (report, sample): ``reports = True`` marks the query
  in the pass's report mask; Algorithm Search emits its ``(qid, pid)``
  pairs, which one count + balance round pair spreads ``ceil(k/p)`` per
  processor (Theorem 5) — no rank sorts them.

Either way :meth:`OutputMode.finalize` maps the folded value (or the id
list, ascending) to the user-visible answer.  New modes register with
:func:`register_mode` and plug in without touching ``search.py`` or the
engine.
"""

from __future__ import annotations

import random
from typing import Any, Dict

from ..errors import ReproError
from ..semigroup import Semigroup, top_k_ids
from .descriptors import Query

__all__ = [
    "OutputMode",
    "register_mode",
    "get_mode",
    "registered_modes",
    "CountMode",
    "AggregateMode",
    "ReportMode",
    "TopKMode",
    "SampleReportMode",
]


class OutputMode:
    """Base class for output modes; subclass and :func:`register_mode`.

    A query folds or it reports.  A folding mode names the semigroup of
    its answer in ``required_semigroup`` (one the tree is not annotated
    with makes the engine refit lazily before the pass); a reporting
    mode sets ``reports`` and receives the matching point ids.
    """

    name: str = ""
    #: ``True``: the answer is built from the matching point ids, not a fold
    reports: bool = False

    def validate(self, query: Query, dim: int) -> None:
        """Reject malformed queries early (box/dimension checks are global)."""

    def required_semigroup(self, query: Query, base: Semigroup) -> Semigroup | None:
        """The semigroup whose annotation this query folds; ``None`` folds
        the selections' leaf counts (no annotation needed)."""
        return None

    def finalize(self, value: Any, query: Query) -> Any:
        """The user-visible answer from the folded value — the semigroup's
        identity when nothing matched — or, for a reporting mode, from
        the list of matching ids, which arrives ascending."""
        return value


class CountMode(OutputMode):
    """Theorem 4 with ⊕ = +: leaf counts need no annotation at all."""

    name = "count"


class AggregateMode(OutputMode):
    """Associative-function mode over a per-query (or build-time) semigroup."""

    name = "aggregate"

    def required_semigroup(self, query, base):
        return query.semigroup if query.semigroup is not None else base


class ReportMode(OutputMode):
    """Theorem 5: the matching point ids, globally sorted per query."""

    name = "report"
    reports = True

    def validate(self, query, dim):
        limit = query.option("limit")
        if limit is not None and limit < 0:
            raise ReproError(f"report limit must be >= 0, got {limit}")

    def finalize(self, value, query):
        limit = query.option("limit")
        return value if limit is None else value[:limit]


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

    def finalize(self, value, query):
        return [pid for _coord, pid in value]


class SampleReportMode(ReportMode):
    """A deterministic sample of ``k`` matching ids (seeded)."""

    name = "sample"

    def validate(self, query, dim):
        k = query.option("k")
        if not k or k < 1:
            raise ReproError(f"sample needs option k >= 1, got {k!r}")

    def finalize(self, value, query):
        k = query.option("k")
        if len(value) <= k:
            return value
        rng = random.Random(query.option("seed", 0))
        return sorted(rng.sample(value, k))


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
