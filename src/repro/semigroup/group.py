"""Abelian groups: semigroups with inverses.

The paper's footnote to Section 1 observes that "in the special case of
associative functions with inverses this problem can be solved using
weighted dominant counting".  An :class:`AbelianGroup` is a
:class:`~repro.semigroup.base.Semigroup` extended with an ``inverse``
operation, which unlocks two techniques implemented in this library:

* inclusion-exclusion range aggregation over dominance (prefix) sums
  (:mod:`repro.seq.dominance`), and
* true deletions in the dynamized range tree (:mod:`repro.seq.dynamic`)
  by subtracting a "deleted" structure.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable, Generic, TypeVar

from .base import Semigroup
from .kernels import ScalarKernel

V = TypeVar("V")

__all__ = ["AbelianGroup", "count_group", "sum_group", "vector_sum_group"]


@dataclass(frozen=True)
class AbelianGroup(Semigroup[V], Generic[V]):
    """A commutative group: semigroup + identity + inverse.

    ``combine(v, inverse(v)) == identity`` must hold for all ``v``.
    """

    inverse: Callable[[V], V] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.inverse is None:
            raise TypeError("AbelianGroup requires an inverse operation")

    def subtract(self, a: V, b: V) -> V:
        """``a ⊕ b⁻¹`` — the derived subtraction."""
        return self.combine(a, self.inverse(b))


def count_group() -> AbelianGroup[int]:
    """Counting with integer negation as the inverse."""
    from .builtin import _lift_one

    return AbelianGroup(
        name="count(group)",
        lift=_lift_one,
        combine=operator.add,
        identity=0,
        inverse=operator.neg,
        kernel=ScalarKernel("count"),
    )


def sum_group(dim: int) -> AbelianGroup[float]:
    """Sum of coordinate ``dim`` with negation as the inverse."""
    from .builtin import _lift_coord

    return AbelianGroup(
        name=f"sum[x{dim}](group)",
        lift=partial(_lift_coord, dim=dim),
        combine=operator.add,
        identity=0.0,
        inverse=operator.neg,
        kernel=ScalarKernel("sum", dim),
    )


def _vec_lift(pid, coords):
    return tuple(float(c) for c in coords)


def _vec_neg(v: tuple) -> tuple:
    return tuple(-x for x in v)


def vector_sum_group(d: int) -> AbelianGroup[tuple]:
    """Componentwise sum of the full coordinate vector."""
    from .builtin import _tuple_add

    return AbelianGroup(
        name=f"vecsum[{d}d](group)",
        lift=_vec_lift,
        combine=_tuple_add,
        identity=(0.0,) * d,
        inverse=_vec_neg,
    )
