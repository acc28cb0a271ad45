"""Seeded update/query streams for the dynamized structures.

The dynamization tentpole (paper §6's open problem, solved via Bentley's
logarithmic method — the paper's own reference [4]) is validated by
*differential testing*: replay one randomized interleaved
insert/delete/query stream against the structure under test and an
oracle, and require identical answers at every query checkpoint.  This
module is the single source of those streams, shared by the test suite
(:mod:`tests.test_dist_dynamic`) and the CLI (``repro stream``), so both
exercise the same adversarial shapes:

* **insert bursts** — several points arrive between checkpoints, forcing
  repeated bucket carries/merges rather than one merge per checkpoint;
* **delete-of-absent** — deletes targeting ids that were never inserted
  (or already deleted), which the structure must reject;
* **duplicate coordinates** — fresh ids at previously used coordinates,
  stressing rank-space tie-breaking and tombstone filters keyed by id;
* **empty-structure queries** — the stream opens with a query before any
  insert, so every mode's empty answer is exercised.

Coordinates are *dyadic rationals* (``i / GRID`` with :data:`GRID` a
power of two) so that floating-point sums over any subset are exact and
order-independent — the bit-identity the differential suite asserts is
then honest even for ``sum``-style aggregates folded in different bucket
orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..geometry.box import Box

__all__ = ["StreamOp", "update_query_stream", "stream_counts"]

#: Coordinates and box corners are multiples of ``1 / GRID``.
GRID = 64
#: An insert burst adds 1 to ``INSERT_BURST`` points.
INSERT_BURST = 4
#: Chance that a step deletes (once anything is live) rather than inserts.
DELETE_RATE = 0.3
#: Chance that a delete targets an already deleted id (a delete-of-absent).
ABSENT_DELETE_RATE = 0.15
#: Chance that an insert reuses coordinates an earlier insert used.
DUPLICATE_COORD_RATE = 0.2
#: A query checkpoint follows every ``QUERY_EVERY`` updates.
QUERY_EVERY = 8
#: Boxes per query checkpoint.
QUERIES_PER_CHECKPOINT = 3
#: A box side spans at most this share of the domain.
MAX_SIDE = 0.6


@dataclass(frozen=True)
class StreamOp:
    """One step of an update/query stream.

    ``kind`` is ``"insert"`` (``pid`` + ``coords``), ``"delete"``
    (``pid``; ``absent`` marks a delete the structure must *reject*
    because the id is not live), or ``"query"`` (``boxes`` to answer as
    one checkpoint batch).
    """

    kind: str
    pid: int | None = None
    coords: Tuple[float, ...] | None = None
    boxes: Tuple[Box, ...] = ()
    absent: bool = False


def _dyadic_box(rng: np.random.Generator, d: int) -> Box:
    """A closed query box with dyadic-rational corners."""
    bounds = []
    max_cells = max(1, int(GRID * MAX_SIDE))
    for _ in range(d):
        lo = int(rng.integers(0, GRID))
        side = int(rng.integers(1, max_cells + 1))
        bounds.append((lo / GRID, min(GRID, lo + side) / GRID))
    return Box(bounds)


def update_query_stream(n_ops: int, d: int, seed: int = 0) -> list[StreamOp]:
    """A seeded stream of ~``n_ops`` interleaved updates and queries.

    Deterministic given ``(n_ops, d, seed)``; its shape is set by the
    module constants (:data:`GRID` … :data:`MAX_SIDE`).  The stream
    always opens with an empty-structure query checkpoint and closes
    with a final checkpoint, and is guaranteed to contain at least one
    insert burst, at least one valid delete (once anything is live), and
    at least one delete-of-absent.
    """
    rng = np.random.default_rng(seed)
    ops: list[StreamOp] = []
    next_pid = 0
    live: list[int] = []
    used_coords: list[Tuple[float, ...]] = []
    retired: list[int] = []  # deleted pids — targets for absent deletes

    def checkpoint() -> StreamOp:
        boxes = tuple(_dyadic_box(rng, d) for _ in range(QUERIES_PER_CHECKPOINT))
        return StreamOp(kind="query", boxes=boxes)

    def fresh_coords() -> Tuple[float, ...]:
        if used_coords and rng.random() < DUPLICATE_COORD_RATE:
            return used_coords[int(rng.integers(0, len(used_coords)))]
        c = tuple(float(x) / GRID for x in rng.integers(0, GRID + 1, size=d))
        used_coords.append(c)
        return c

    ops.append(checkpoint())  # queries against the empty structure
    updates_since_checkpoint = 0
    while len(ops) < n_ops:
        roll = rng.random()
        if live and roll < DELETE_RATE:
            if retired and rng.random() < ABSENT_DELETE_RATE:
                pid = retired[int(rng.integers(0, len(retired)))]
                ops.append(StreamOp(kind="delete", pid=pid, absent=True))
            else:
                i = int(rng.integers(0, len(live)))
                pid = live.pop(i)
                retired.append(pid)
                ops.append(StreamOp(kind="delete", pid=pid))
            updates_since_checkpoint += 1
        else:
            burst = 1 + int(rng.integers(0, INSERT_BURST))
            for _ in range(burst):
                pid = next_pid
                next_pid += 1
                live.append(pid)
                ops.append(StreamOp(kind="insert", pid=pid, coords=fresh_coords()))
                updates_since_checkpoint += 1
        if updates_since_checkpoint >= QUERY_EVERY:
            ops.append(checkpoint())
            updates_since_checkpoint = 0
    if not retired and live:
        # guarantee the delete shapes appear even in tiny streams
        pid = live.pop()
        retired.append(pid)
        ops.append(StreamOp(kind="delete", pid=pid))
    if retired:
        ops.append(StreamOp(kind="delete", pid=retired[0], absent=True))
    ops.append(checkpoint())
    return ops


def stream_counts(ops: Sequence[StreamOp]) -> dict:
    """Shape summary of a stream (used by the CLI and sanity tests)."""
    kinds = [op.kind for op in ops]
    return {
        "ops": len(ops),
        "inserts": kinds.count("insert"),
        "deletes": sum(
            1 for op in ops if op.kind == "delete" and not op.absent
        ),
        "absent_deletes": sum(
            1 for op in ops if op.kind == "delete" and op.absent
        ),
        "checkpoints": kinds.count("query"),
    }
