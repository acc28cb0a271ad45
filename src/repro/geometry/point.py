"""Points and point sets in ``E^d``.

The paper works with a collection ``L`` of ``n`` records, each identified by
an ordered d-tuple of coordinates.  :class:`PointSet` is the user-facing
container: it validates shapes, keeps coordinates as a contiguous numpy
array (guide: prefer array storage over per-point Python objects), and is
the input to rank-space normalisation (:mod:`repro.geometry.rankspace`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import DimensionMismatch, EmptyPointSet, GeometryError

__all__ = ["Point", "PointSet", "checked_coords", "checked_pid"]


def checked_coords(coords: Sequence[float], dim: int) -> tuple[float, ...]:
    """One point's coordinates as a float tuple, or :class:`GeometryError`
    — the check :class:`PointSet` runs on a whole set, for the structures
    that take points one at a time and must reject a bad one *before*
    mutating any state."""
    if len(coords) != dim:
        raise GeometryError(f"expected {dim} coordinates, got {len(coords)}")
    out = tuple(float(c) for c in coords)
    if not all(math.isfinite(c) for c in out):
        raise GeometryError("coordinates must be finite")
    return out


def checked_pid(pid) -> int:
    """One point id as a non-negative ``int``, or :class:`GeometryError` —
    the id check :class:`PointSet` runs on a whole set (negative ids name
    the padding sentinels), run before any state changes."""
    try:
        out = operator.index(pid)
    except TypeError:
        raise GeometryError(f"point ids must be integers, got {pid!r}") from None
    if out < 0:
        raise GeometryError(f"point ids must be >= 0, got {out}")
    return out


@dataclass(frozen=True, slots=True)
class Point:
    """A single immutable point: a thin named wrapper over a coordinate tuple.

    Most library internals use raw numpy rows for speed; :class:`Point` is a
    convenience for examples and results (e.g. report-mode output).
    """

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.coords) == 0:
            raise GeometryError("a point needs at least one coordinate")

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> float:
        return self.coords[i]

    def __iter__(self) -> Iterator[float]:
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)


class PointSet:
    """An ordered, immutable collection of ``n`` points in ``E^d``.

    Parameters
    ----------
    coords:
        Anything convertible to an ``(n, d)`` float array: a list of
        coordinate tuples, a list of :class:`Point`, or a numpy array.
    ids:
        Optional stable, non-negative integer identifiers, one per point.
        Defaults to ``0..n-1``.  Report-mode answers refer to points by
        these ids.

    Notes
    -----
    The point set preserves insertion order; rank-space normalisation breaks
    coordinate ties by this order, which makes every algorithm in the
    library deterministic for any input.
    """

    __slots__ = ("_coords", "_ids")

    def __init__(
        self,
        coords: Iterable[Sequence[float]] | np.ndarray,
        ids: Sequence[int] | None = None,
    ) -> None:
        if isinstance(coords, PointSet):
            arr = coords._coords.copy()
        else:
            rows = [tuple(c) for c in coords] if not isinstance(coords, np.ndarray) else coords
            arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim == 1:
            # a flat list of scalars means 1-d points
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise GeometryError(f"coords must form an (n, d) array, got shape {arr.shape}")
        if arr.shape[0] == 0:
            raise EmptyPointSet("a PointSet needs at least one point")
        if arr.shape[1] == 0:
            raise GeometryError("points need at least one dimension")
        if not np.all(np.isfinite(arr)):
            raise GeometryError("coordinates must be finite")
        arr.setflags(write=False)
        self._coords = arr
        if ids is None:
            id_arr = np.arange(arr.shape[0], dtype=np.int64)
        else:
            id_arr = np.asarray(list(ids), dtype=np.int64)
            if id_arr.shape != (arr.shape[0],):
                raise GeometryError(
                    f"ids must have one entry per point ({arr.shape[0]}), got {id_arr.shape}"
                )
            if len(np.unique(id_arr)) != id_arr.shape[0]:
                raise GeometryError("point ids must be unique")
            if id_arr.min() < 0:
                # negative ids name the power-of-two padding sentinels
                raise GeometryError(f"point ids must be >= 0, got {int(id_arr.min())}")
        id_arr.setflags(write=False)
        self._ids = id_arr

    # -- basic protocol ----------------------------------------------------
    @property
    def n(self) -> int:
        """Number of points."""
        return int(self._coords.shape[0])

    @property
    def dim(self) -> int:
        """Dimensionality ``d``."""
        return int(self._coords.shape[1])

    @property
    def coords(self) -> np.ndarray:
        """Read-only ``(n, d)`` coordinate array."""
        return self._coords

    @property
    def ids(self) -> np.ndarray:
        """Read-only ``(n,)`` id array."""
        return self._ids

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[Point]:
        for row in self._coords:
            yield Point(tuple(float(x) for x in row))

    def __getitem__(self, i: int) -> Point:
        return Point(tuple(float(x) for x in self._coords[i]))

    def point_id(self, i: int) -> int:
        """Id of the i-th point (insertion order)."""
        return int(self._ids[i])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PointSet(n={self.n}, d={self.dim})"

    # -- helpers -----------------------------------------------------------
    def column(self, dim: int) -> np.ndarray:
        """The coordinates of every point along one dimension."""
        if not 0 <= dim < self.dim:
            raise DimensionMismatch(self.dim, dim, "dimension index")
        return self._coords[:, dim]

    def subset(self, indices: Sequence[int]) -> "PointSet":
        """A new PointSet holding the selected rows (ids preserved)."""
        idx = np.asarray(list(indices), dtype=np.int64)
        return PointSet(self._coords[idx], ids=self._ids[idx])

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """(mins, maxs) arrays over all points."""
        return self._coords.min(axis=0), self._coords.max(axis=0)
