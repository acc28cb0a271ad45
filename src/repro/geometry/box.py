"""Orthogonal query domains (boxes) in ``E^d`` and in rank space.

The paper's query ``q`` specifies a domain in ``E^d``; for orthogonal range
search this is a product of closed intervals.  Two box types exist:

* :class:`Box` — real-coordinate closed box, the user-facing query type.
* :class:`RankBox` — integer rank-space box produced by
  :meth:`repro.geometry.rankspace.RankSpace.to_rank_box`; this is what every
  tree structure in the library actually searches with.  A RankBox may be
  *empty* in some dimension (``lo > hi``), meaning no point can match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..errors import DimensionMismatch, GeometryError

__all__ = ["Box", "RankBox", "Interval"]


def _stack(rows: Sequence, dtype, what: str) -> np.ndarray:
    """Equal-length ``rows`` as one ``(m, d)`` matrix (``(0, 0)`` for none)."""
    try:
        mat = np.array(rows, dtype=dtype)
    except ValueError:  # ragged: numpy refuses an inhomogeneous shape
        d = len(rows[0])
        raise DimensionMismatch(d, next(len(r) for r in rows if len(r) != d), what) from None
    return mat.reshape(len(rows), -1) if len(rows) else mat.reshape(0, 0)


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed real interval ``[lo, hi]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise GeometryError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise GeometryError(f"interval lo ({self.lo}) exceeds hi ({self.hi})")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    @property
    def length(self) -> float:
        return self.hi - self.lo


class Box:
    """A closed axis-aligned box ``[lo_1,hi_1] x ... x [lo_d,hi_d]``.

    Construct from per-dimension ``(lo, hi)`` pairs::

        Box([(0.0, 1.0), (2.0, 3.5)])      # a 2-d query
        Box.around_point((1.0, 2.0), 0.5)  # cube of half-width 0.5
    """

    __slots__ = ("_lo", "_hi")

    def __init__(self, bounds: Iterable[tuple[float, float]]) -> None:
        pairs = [(float(lo), float(hi)) for lo, hi in bounds]
        if not pairs:
            raise GeometryError("a box needs at least one dimension")
        lo = np.array([p[0] for p in pairs], dtype=np.float64)
        hi = np.array([p[1] for p in pairs], dtype=np.float64)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise GeometryError("box bounds must be finite")
        if np.any(lo > hi):
            bad = int(np.argmax(lo > hi))
            raise GeometryError(f"box lo exceeds hi in dimension {bad}")
        lo.setflags(write=False)
        hi.setflags(write=False)
        self._lo = lo
        self._hi = hi

    @property
    def dim(self) -> int:
        return int(self._lo.shape[0])

    @property
    def lo(self) -> np.ndarray:
        return self._lo

    @property
    def hi(self) -> np.ndarray:
        return self._hi

    def interval(self, dim: int) -> Interval:
        if not 0 <= dim < self.dim:
            raise DimensionMismatch(self.dim, dim, "dimension index")
        return Interval(float(self._lo[dim]), float(self._hi[dim]))

    def contains_point(self, coords: Sequence[float]) -> bool:
        """True iff the (real-coordinate) point lies inside the closed box."""
        c = np.asarray(coords, dtype=np.float64)
        if c.shape != (self.dim,):
            got = c.shape[0] if c.ndim == 1 else c.shape
            raise DimensionMismatch(self.dim, got, "point")
        return bool(np.all(self._lo <= c) and np.all(c <= self._hi))

    def contains_rows(self, rows: np.ndarray) -> np.ndarray:
        """Vectorised membership test for an ``(n, d)`` coordinate array."""
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise DimensionMismatch(self.dim, int(rows.shape[-1]), "rows")
        return np.all((rows >= self._lo) & (rows <= self._hi), axis=1)

    def volume(self) -> float:
        return float(np.prod(self._hi - self._lo))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return bool(np.array_equal(self._lo, other._lo) and np.array_equal(self._hi, other._hi))

    def __hash__(self) -> int:
        return hash((tuple(self._lo), tuple(self._hi)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"[{l:g},{h:g}]" for l, h in zip(self._lo, self._hi))
        return f"Box({parts})"

    @staticmethod
    def stack(boxes: Sequence["Box"]) -> tuple[np.ndarray, np.ndarray]:
        """The boxes' bounds as two float64 ``(m, d)`` matrices ``(lo, hi)``
        — the form a batch travels in from plan to walk."""
        return (
            _stack([b._lo for b in boxes], np.float64, "box"),
            _stack([b._hi for b in boxes], np.float64, "box"),
        )

    @staticmethod
    def around_point(center: Sequence[float], half_width: float) -> "Box":
        c = np.asarray(center, dtype=np.float64)
        return Box([(float(x - half_width), float(x + half_width)) for x in c])

    @staticmethod
    def full(dim: int, lo: float, hi: float) -> "Box":
        """The same interval in every dimension."""
        return Box([(lo, hi)] * dim)


@dataclass(frozen=True, slots=True)
class RankBox:
    """An integer rank-space query: per-dimension closed rank intervals.

    ``los[i] > his[i]`` encodes an interval that matches no rank in
    dimension ``i`` (the whole query is then empty).  Ranks are 0-based.
    """

    los: tuple[int, ...]
    his: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.los) != len(self.his):
            raise GeometryError("rank box lo/hi tuples differ in length")
        if len(self.los) == 0:
            raise GeometryError("a rank box needs at least one dimension")

    @property
    def dim(self) -> int:
        return len(self.los)

    def is_empty(self) -> bool:
        """True iff no point can possibly match."""
        return any(lo > hi for lo, hi in zip(self.los, self.his))

    def interval(self, dim: int) -> tuple[int, int]:
        return self.los[dim], self.his[dim]
