"""Declarative query descriptors: what to ask, separately from how to run it.

The paper's Theorems 3-5 present counting, reporting, and
associative-function search as three *output modes* of one Algorithm
Search.  A :class:`Query` names a box plus the output mode (and
per-query options such as a report limit or a per-query semigroup); a
:class:`QueryBatch` bundles queries of arbitrary mixed modes.  The engine
(:mod:`repro.query.engine`) plans a batch so that all modes share a
single search pass.

Boxes may be given as :class:`~repro.geometry.box.Box` instances or as
plain per-dimension ``(lo, hi)`` pairs — ``count(((0.2, 0.4), (0.1, 0.9)))``
works without importing any geometry type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from ..geometry.box import Box
from ..semigroup import Semigroup

__all__ = [
    "Query",
    "QueryBatch",
    "as_box",
    "count",
    "report",
    "aggregate",
    "top_k",
    "sample_report",
]

BoxLike = "Box | Sequence[tuple[float, float]]"


def as_box(box: Any) -> Box:
    """Coerce a :class:`Box` or a sequence of ``(lo, hi)`` pairs to a Box."""
    if isinstance(box, Box):
        return box
    return Box([(float(lo), float(hi)) for lo, hi in box])


@dataclass(frozen=True)
class Query:
    """One range query: a box, an output mode, and per-query options.

    ``mode`` names a registered output mode (:mod:`repro.query.modes`);
    ``semigroup`` overrides the tree's build-time aggregate for modes
    that fold one (``aggregate`` and friends); ``options`` carries
    mode-specific knobs (``limit`` for report truncation, ``k``/``dim``
    for top-k, ``seed`` for sampled report).  Prefer the module-level
    constructors (:func:`count`, :func:`report`, ...) over building
    these by hand.
    """

    box: Box
    mode: str = "count"
    semigroup: Semigroup | None = None
    options: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "box", as_box(self.box))
        object.__setattr__(self, "options", dict(self.options))

    def option(self, name: str, default: Any = None) -> Any:
        return self.options.get(name, default)


def count(box: Any) -> Query:
    """Counting mode: how many points fall in the box (Theorem 4, ⊕ = +)."""
    return Query(box=box, mode="count")


def report(box: Any, limit: int | None = None) -> Query:
    """Report mode: the sorted matching point ids (Theorem 5).

    ``limit`` truncates the answer to its ``limit`` smallest ids — the
    full result is still computed and balanced.
    """
    opts = {} if limit is None else {"limit": int(limit)}
    return Query(box=box, mode="report", options=opts)


def aggregate(box: Any, semigroup: Semigroup | None = None) -> Query:
    """Associative-function mode: ``⊕ f(point)`` over the matching points.

    With ``semigroup=None`` the tree's build-time semigroup is used; a
    different semigroup triggers a lazy ``reannotate``-style local refit
    (no extra sort or routing rounds) the first time it is seen.
    """
    return Query(box=box, mode="aggregate", semigroup=semigroup)


def top_k(box: Any, k: int, dim: int = 0) -> Query:
    """Top-k mode: the ``k`` matching points smallest in coordinate ``dim``."""
    return Query(box=box, mode="topk", options={"k": int(k), "dim": int(dim)})


def sample_report(box: Any, k: int, seed: int = 0) -> Query:
    """Sampled report mode: ``k`` matching ids, deterministically sampled."""
    return Query(box=box, mode="sample", options={"k": int(k), "seed": int(seed)})


@dataclass(frozen=True)
class QueryBatch:
    """An ordered batch of (possibly mixed-mode) queries; answers come
    back in query order through a :class:`~repro.query.result.ResultSet`."""

    queries: Sequence[Query]

    def __post_init__(self) -> None:
        object.__setattr__(self, "queries", tuple(self.queries))
        for q in self.queries:
            if not isinstance(q, Query):
                raise TypeError(
                    f"QueryBatch takes Query descriptors, got {type(q).__name__}; "
                    "wrap boxes with repro.query.count/report/aggregate"
                )

    @classmethod
    def coerce(cls, batch: Any) -> "QueryBatch":
        """What every ``run(batch)`` accepts — a batch, a sequence of
        :class:`Query` descriptors or a single one — as a batch."""
        if isinstance(batch, Query):
            return cls([batch])
        return batch if isinstance(batch, cls) else cls(list(batch))

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def __getitem__(self, i: int) -> Query:
        return self.queries[i]

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The boxes as float64 ``(m, d)`` matrices ``(lo, hi)``, stacked
        once: the engine's plan touches it and every later consumer of
        the batch (``execute`` for every part of its pass, the side
        scans of the dynamic tree) reads the same pair."""
        return Box.stack([q.box for q in self.queries])

    def modes(self) -> set[str]:
        """The distinct output modes present in the batch."""
        return {q.mode for q in self.queries}
