"""Ready-made semigroups for the associative-function mode.

These cover the aggregates a downstream user typically wants from a range
query: counting, coordinate sums/extremes, id sets for small results, and
bounding boxes.  All are commutative with an identity, as required by
:class:`repro.semigroup.base.Semigroup`.

Every builtin is **picklable**: lifts and combines are module-level
functions (closed over their parameters with :func:`functools.partial`),
never lambdas, because semigroups ride inside forest elements and
construction payloads across the process backend's boundary.  User-defined
semigroups built from lambdas still work on the in-process backends.

A constructor whose values have a typed columnar form says so here, once:
it passes the :mod:`~repro.semigroup.kernels` kernel as the semigroup's
``kernel`` field.  The others — sets, moments, top-k, histograms — pass
none and get an :class:`~repro.semigroup.kernels.ObjectKernel` over
their own ``lift``/``combine``; a product resolves a
:class:`~repro.semigroup.kernels.ProductKernel` over its components'
kernels, whatever they are.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from .base import Semigroup
from .kernels import BBoxKernel, ProductKernel, ScalarKernel

__all__ = [
    "COUNT",
    "NO_LAYERS",
    "ProductSemigroup",
    "annotation_of",
    "is_count",
    "count_semigroup",
    "product_semigroup",
    "sum_of_dim",
    "min_of_dim",
    "max_of_dim",
    "id_set",
    "bounding_box_semigroup",
    "moments_of_dim",
    "top_k_ids",
    "histogram_of_dim",
]


# ---------------------------------------------------------------------------
# module-level lift/combine building blocks (picklable by reference)
# ---------------------------------------------------------------------------
def _lift_one(pid: int, coords: Sequence[float]) -> int:
    return 1


def _lift_coord(pid: int, coords: Sequence[float], dim: int = 0) -> float:
    return float(coords[dim])


def _lift_id_singleton(pid: int, coords: Sequence[float]) -> frozenset:
    return frozenset((pid,))


def _union(a: frozenset, b: frozenset) -> frozenset:
    return a | b


def _bbox_lift(pid: int, coords: Sequence[float]) -> tuple:
    t = tuple(float(c) for c in coords)
    return (t, t)


def _bbox_combine(a: tuple, b: tuple) -> tuple:
    amin, amax = a
    bmin, bmax = b
    return (
        tuple(min(x, y) for x, y in zip(amin, bmin)),
        tuple(max(x, y) for x, y in zip(amax, bmax)),
    )


def _moments_lift(pid: int, coords: Sequence[float], dim: int = 0) -> tuple:
    x = float(coords[dim])
    return (1, x, x * x)


def _tuple_add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _topk_lift(pid: int, coords: Sequence[float], dim: int = 0) -> tuple:
    return ((float(coords[dim]), pid),)


def _topk_combine(a: tuple, b: tuple, k: int = 1) -> tuple:
    return tuple(sorted(a + b)[:k])


def _hist_lift(
    pid: int, coords: Sequence[float], dim: int = 0, cuts: tuple = (), nbins: int = 1
) -> tuple:
    b = bisect.bisect_right(cuts, float(coords[dim]))
    return tuple(1 if i == b else 0 for i in range(nbins))


def _product_lift(pid: int, coords: Sequence[float], comps: tuple = ()) -> tuple:
    return tuple(c.lift(pid, coords) for c in comps)


def _product_combine(a: tuple, b: tuple, comps: tuple = ()) -> tuple:
    return tuple(c.combine(x, y) for c, x, y in zip(comps, a, b))


# ---------------------------------------------------------------------------
# the builtins
# ---------------------------------------------------------------------------
def count_semigroup() -> Semigroup[int]:
    """Count matching points (the paper's canonical example)."""
    return Semigroup(
        name="count",
        lift=_lift_one,
        combine=operator.add,
        identity=0,
        kernel=ScalarKernel("count"),
    )


#: Shared count instance — the default aggregate of the distributed tree.
COUNT: Semigroup[int] = count_semigroup()


def sum_of_dim(dim: int) -> Semigroup[float]:
    """Sum of coordinate ``dim`` over matching points."""
    return Semigroup(
        name=f"sum[x{dim}]",
        lift=partial(_lift_coord, dim=dim),
        combine=operator.add,
        identity=0.0,
        kernel=ScalarKernel("sum", dim),
    )


def min_of_dim(dim: int) -> Semigroup[float]:
    """Minimum of coordinate ``dim`` (identity: +inf)."""
    return Semigroup(
        name=f"min[x{dim}]",
        lift=partial(_lift_coord, dim=dim),
        combine=min,
        identity=math.inf,
        kernel=ScalarKernel("min", dim),
    )


def max_of_dim(dim: int) -> Semigroup[float]:
    """Maximum of coordinate ``dim`` (identity: -inf)."""
    return Semigroup(
        name=f"max[x{dim}]",
        lift=partial(_lift_coord, dim=dim),
        combine=max,
        identity=-math.inf,
        kernel=ScalarKernel("max", dim),
    )


def id_set() -> Semigroup[frozenset]:
    """The set of matching point ids.

    Turns the associative-function mode into a (memory-hungry) report mode;
    useful in tests to cross-validate the two modes.
    """
    return Semigroup(
        name="id-set",
        lift=_lift_id_singleton,
        combine=_union,
        identity=frozenset(),
    )


def bounding_box_semigroup(dim: int) -> Semigroup[tuple]:
    """Tight bounding box of the matching points.

    Values are ``(mins, maxs)`` coordinate tuples; the identity is the
    empty box ``(+inf…, -inf…)``.
    """
    inf = math.inf
    return Semigroup(
        name=f"bbox[{dim}d]",
        lift=_bbox_lift,
        combine=_bbox_combine,
        identity=((inf,) * dim, (-inf,) * dim),
        kernel=BBoxKernel(dim),
    )


def moments_of_dim(dim: int) -> Semigroup[tuple]:
    """(count, sum, sum of squares) of coordinate ``dim``.

    Enough to reconstruct mean and variance of a coordinate over the
    matching points — the classic database-statistics use case from the
    paper's introduction.
    """
    return Semigroup(
        name=f"moments[x{dim}]",
        lift=partial(_moments_lift, dim=dim),
        combine=_tuple_add,
        identity=(0, 0.0, 0.0),
    )


def top_k_ids(k: int, dim: int = 0) -> Semigroup[tuple]:
    """The k points with the smallest coordinate in ``dim`` (id-tagged).

    Values are sorted tuples of ``(coordinate, id)`` pairs, truncated to
    length k — a bounded merge, so the semigroup laws hold exactly.  The
    classic "nearest events in the window" database aggregate.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return Semigroup(
        name=f"top{k}[x{dim}]",
        lift=partial(_topk_lift, dim=dim),
        combine=partial(_topk_combine, k=k),
        identity=(),
    )


@dataclass(frozen=True)
class ProductSemigroup(Semigroup):
    """Componentwise product of several semigroups.

    Values are tuples, one slot per component; ``lift``/``combine``/
    ``identity`` act slot by slot.  Every tree annotation is one
    (:func:`annotation_of`): its components are the *layers* a tree
    stores, so re-annotating the tree once with a product makes every
    component's aggregate available to later batches without another
    refit (a layer is looked up by its semigroup's ``name``).  Its kernel is
    always the :class:`~repro.semigroup.kernels.ProductKernel` over its
    components' kernels, resolved here.
    """

    components: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel", ProductKernel([c.kernel for c in self.components]))


#: The annotation that stores no layer: the product of no semigroups,
#: zero columns wide.  A count is a node's width (Theorem 4 with f ≡ 1),
#: so COUNT is never stored and a tree declared with it holds this.
NO_LAYERS: ProductSemigroup = ProductSemigroup(
    name="()",
    lift=partial(_product_lift, comps=()),
    combine=partial(_product_combine, comps=()),
    identity=(),
    components=(),
)


def is_count(semigroup: Semigroup) -> bool:
    """Whether ``semigroup`` counts under COUNT's kernel (int64 ones, exact
    addition), so its fold over a node is the node's width: the query
    plan folds it from leaf counts and no tree stores it."""
    return semigroup.kernel == COUNT.kernel


def annotation_of(semigroup: Semigroup) -> ProductSemigroup:
    """What a tree declared with ``semigroup`` stores per node, as a
    product of layers: :data:`NO_LAYERS` for a count, else the one layer
    ``semigroup`` (a declared product is one layer too, known by its
    own name)."""
    return NO_LAYERS if is_count(semigroup) else product_semigroup([semigroup])


def product_semigroup(components: Sequence[Semigroup]) -> ProductSemigroup:
    """Bundle ``components`` into one componentwise :class:`ProductSemigroup`."""
    comps = tuple(components)
    if not comps:
        raise ValueError("a product semigroup needs at least one component")
    seen: set[str] = set()
    for c in comps:
        if c.name in seen:
            raise ValueError(f"duplicate component semigroup name {c.name!r}")
        seen.add(c.name)
    return ProductSemigroup(
        name="(" + " x ".join(c.name for c in comps) + ")",
        lift=partial(_product_lift, comps=comps),
        combine=partial(_product_combine, comps=comps),
        identity=tuple(c.identity for c in comps),
        components=comps,
    )


def histogram_of_dim(dim: int, edges: Sequence[float]) -> Semigroup[tuple]:
    """Fixed-bin histogram of coordinate ``dim`` over the matching points.

    ``edges`` are the interior bin boundaries: a value lands in bin
    ``bisect_right(edges, x)``, so there are ``len(edges) + 1`` bins.
    Values are count tuples; combination is componentwise addition.
    """
    cuts = tuple(float(e) for e in edges)
    nbins = len(cuts) + 1
    return Semigroup(
        name=f"hist[x{dim},{nbins}bins]",
        lift=partial(_hist_lift, dim=dim, cuts=cuts, nbins=nbins),
        combine=_tuple_add,
        identity=(0,) * nbins,
    )
