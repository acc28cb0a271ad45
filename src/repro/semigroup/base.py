"""Commutative semigroup abstraction for the associative-function mode.

The paper's associative-function mode computes ``⊕_{l ∈ R(q)} f(l)`` where
``f(l)`` lives in a commutative semigroup ``(V, ⊕)``.  A
:class:`Semigroup` bundles

* ``lift`` — the function ``f`` from a point to a semigroup value,
* ``combine`` — the associative, commutative operation ``⊕``,
* ``identity`` — a neutral element.

Strictly, a semigroup needs no identity; we require one so that empty query
results and sentinel padding points have a well-defined value (the paper
sidesteps this by assuming non-empty selections).  Every classical example
(count, sum, max over a bounded domain, ...) has one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generic, Iterable, Sequence, TypeVar

from .kernels import ObjectKernel, SemigroupKernel

V = TypeVar("V")

__all__ = ["Semigroup"]


@dataclass(frozen=True)
class Semigroup(Generic[V]):
    """A commutative semigroup with identity, plus the lift ``f``.

    Parameters
    ----------
    name:
        Human-readable label (used in benchmark tables).
    lift:
        ``f(point_id, coords) -> V``.  Receives the point's id and its
        *real* coordinates so aggregates like "sum of x" are expressible.
    combine:
        The commutative, associative binary operation.
    identity:
        Neutral element: ``combine(identity, v) == v`` for all ``v``.
    kernel:
        How the values are stored and folded
        (:mod:`repro.semigroup.kernels`): the typed columnar twin of
        ``lift``/``combine``/``identity`` that a builtin constructor (or a
        third-party semigroup) names, else — passing ``None`` — an
        :class:`~repro.semigroup.kernels.ObjectKernel` over this
        semigroup's own functions, resolved here and never ``None``
        afterwards (a :class:`~repro.semigroup.builtin.ProductSemigroup`
        resolves its own).  An object kernel always describes the
        semigroup holding it: ``dataclasses.replace`` re-resolves it.
    """

    name: str
    lift: Callable[[int, Sequence[float]], V]
    combine: Callable[[V, V], V]
    identity: V
    kernel: "SemigroupKernel | None" = None

    def __post_init__(self) -> None:
        if self.kernel is None or isinstance(self.kernel, ObjectKernel):
            object.__setattr__(self, "kernel", ObjectKernel(self))

    def fold(self, values: Iterable[V]) -> V:
        """Combine many values (left fold starting at the identity)."""
        acc = self.identity
        for v in values:
            acc = self.combine(acc, v)
        return acc
