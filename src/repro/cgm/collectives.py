"""The §1 communication operations Construct and Search use (*The Model*).

    "all global communications are performed by a small set of standard
    communications operations: Segmented broadcast, Segmented gather,
    All-to-All broadcast, Personalized All-to-All broadcast, Partial sum
    and Sort"

The reproduction implements the ones its algorithms call, each exactly
one ``exchange`` round on the :class:`~repro.cgm.machine.Machine`:
All-to-All broadcast (:func:`alltoall_broadcast`, and :func:`allgather`
for one value per rank — the partial sums of Search step 2 and of the
sort's balance step are computed from it locally) and Personalized
All-to-All broadcast (:func:`route_batches`).  Sort lives in
:mod:`repro.cgm.sort`.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

from ..errors import ProtocolError
from .columns import RecordBatch
from .machine import Machine

T = TypeVar("T")

__all__ = ["alltoall_broadcast", "allgather", "route_batches"]


def route_batches(
    mach: Machine,
    batches: Sequence[RecordBatch],
    dests: Sequence[np.ndarray],
    label: str = "route",
    template: "RecordBatch | None" = None,
) -> list[RecordBatch]:
    """Personalized all-to-all: row ``i`` of ``batches[r]`` goes to rank
    ``dests[r][i]``; one h-relation of whole column packs.

    Rows keep their relative order per ``(source, destination)`` pair —
    one ``take`` per destination over the ascending row indices — so each
    inbox is ordered by source rank, then by row.  ``template`` shapes
    empty inboxes (any batch of the stream's schema).
    """
    p = mach.p
    outboxes: list[list] = [[None] * p for _ in range(p)]
    for r, batch in enumerate(batches):
        n = len(batch)
        if not n:
            continue
        dest = np.asarray(dests[r], dtype=np.int64)
        if len(dest) != n:
            raise ProtocolError(
                f"rank {r}: {n} rows but {len(dest)} destinations"
            )
        if len(dest) and (int(dest.min()) < 0 or int(dest.max()) >= p):
            raise ProtocolError(
                f"destination out of range for p={p} at rank {r}"
            )
        for dst in np.unique(dest):
            outboxes[r][int(dst)] = batch.take(np.nonzero(dest == dst)[0])
    return mach.exchange_batches(label, outboxes, template)


def alltoall_broadcast(
    mach: Machine,
    locals_: Sequence[Sequence[T]],
    label: str = "alltoall-bcast",
) -> list[list[T]]:
    """All-to-all broadcast: every processor receives everyone's items.

    Result per rank is the concatenation ordered by source rank — identical
    on every processor.
    """
    # one list object per source in all of its destination slots, which
    # is what lets the exchange size a broadcast list once
    return mach.exchange(label, [[list(items)] * mach.p for items in locals_])


def allgather(mach: Machine, values: Sequence[T], label: str = "allgather") -> list[list[T]]:
    """Each rank contributes one value; all ranks receive the full list."""
    if len(values) != mach.p:
        raise ProtocolError(f"allgather needs one value per rank, got {len(values)}")
    return alltoall_broadcast(mach, [[v] for v in values], label=label)
