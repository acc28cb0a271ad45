"""Seeded input generators (numpy only; nothing from ``repro.workloads``).

Every coordinate is dyadic (``k / 2**20``), so any sum of up to ``2**30``
of them is exact in float64 whatever the order, and answers compare with
``==``.  The same ``--seed`` gives the same inputs.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

GRID = 1 << 20
SELECTIVITY = 0.01


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """An independent generator per (seed, stream) pair."""
    return np.random.default_rng([int(seed), int(stream)])


def uniform_points(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """``(n, d)`` points uniform on the dyadic grid in ``[0, 1)``."""
    return rng.integers(0, GRID, size=(n, d)) / GRID


def selectivity_boxes(
    rng: np.random.Generator, m: int, d: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``m`` cubes of volume ``SELECTIVITY`` placed uniformly inside the unit cube."""
    side = int(round(SELECTIVITY ** (1.0 / d) * GRID))
    lo = rng.integers(0, GRID - side, size=(m, d))
    return lo / GRID, (lo + side) / GRID


def centered_boxes(
    rng: np.random.Generator, m: int, d: int, half_width: float
) -> Tuple[np.ndarray, np.ndarray]:
    """``m`` cubes of the given half-width around uniform centres, clipped to ``[0, 1]``."""
    half = int(round(half_width * GRID))
    centre = rng.integers(0, GRID, size=(m, d))
    return np.maximum(centre - half, 0) / GRID, np.minimum(centre + half, GRID) / GRID


def mode_cycle(m: int, modes: str, offset: int = 0) -> List[str]:
    """Query ``i`` gets mode ``modes[(i + offset) % len(modes)]`` (``c``/``r``/``a``)."""
    return [modes[(i + offset) % len(modes)] for i in range(m)]


def paced_schedule(
    rng: np.random.Generator, count: int, qps: float, jitter: float = 0.2
) -> np.ndarray:
    """Due times (seconds from 0) of an open-loop stream at ``qps``.

    Gaps are uniform in ``(1 ± jitter) / qps``: requests are sent on schedule
    whatever the server does, but arrivals never clump, so at a light rate a
    request queues behind another only when the server stalls.
    """
    return np.cumsum(rng.uniform(1.0 - jitter, 1.0 + jitter, size=count) / qps)


class UpdateStream:
    """Insert/delete stream with a mirror of the live set.

    ``next_cycle`` returns the inserts ``(ids, coords)`` and the deletes and
    applies both to the mirror, so ``live()`` is the state the structure must
    answer from.  Deletes are drawn from the live *initial* points only: a
    delete of a still-buffered insert would shift the next flush by a cycle,
    and with it the bucket layout every later op sees, from seed to seed.
    """

    def __init__(self, rng: np.random.Generator, points: np.ndarray) -> None:
        self._rng = rng
        self._d = points.shape[1]
        self._ids: List[int] = list(range(len(points)))
        self._old = len(points)  # the first _old entries of _ids are initial points
        self._coords = {i: points[i] for i in range(len(points))}
        self._next_id = len(points)

    def next_cycle(self, inserts: int, deletes: int):
        rng = self._rng
        dead = []
        for _ in range(deletes):
            dead.append(self._ids.pop(int(rng.integers(self._old))))
            self._old -= 1
        for pid in dead:
            del self._coords[pid]
        new_coords = uniform_points(rng, inserts, self._d)
        new_ids = list(range(self._next_id, self._next_id + inserts))
        self._next_id += inserts
        for pid, row in zip(new_ids, new_coords):
            self._coords[pid] = row
        self._ids.extend(new_ids)
        return new_ids, new_coords, dead

    def live(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(ids, coords)`` of the live points."""
        ids = np.asarray(self._ids, dtype=np.int64)
        return ids, np.stack([self._coords[i] for i in self._ids])
