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

    Each source is split with one stable argsort of its destinations and
    one ``take``; its ``p`` outboxes are slices of that, so rows keep
    their relative order per ``(source, destination)`` pair and each
    inbox is ordered by source rank, then by row.  The destinations are
    sorted in the narrowest unsigned type that holds ``p - 1``: numpy's
    stable sort of an integer of 16 bits or fewer is a radix sort, and
    a stable order does not depend on the key's width.  Every destination
    column is checked before its source is split — integer-typed, one
    entry per row, each in ``[0, p)`` — so a bad one raises
    :class:`ProtocolError` before the round, empty sources included.
    ``template`` shapes empty inboxes (any batch of the stream's schema).
    """
    p = mach.p
    narrow = np.min_scalar_type(p - 1)
    outboxes: list[list] = [[None] * p for _ in range(p)]
    for r, batch in enumerate(batches):
        dest = np.asarray(dests[r])
        if not np.issubdtype(dest.dtype, np.integer):
            raise ProtocolError(f"rank {r}: destinations of dtype {dest.dtype}, not integer")
        if dest.shape != (len(batch),):
            raise ProtocolError(
                f"rank {r}: {len(batch)} rows but {dest.size} destinations"
            )
        if not len(dest):
            continue
        if int(dest.min()) < 0 or int(dest.max()) >= p:
            raise ProtocolError(
                f"destination out of range for p={p} at rank {r}"
            )
        routed = batch.take(np.argsort(dest.astype(narrow), kind="stable"))
        ends = np.cumsum(np.bincount(dest.astype(np.int64, copy=False), minlength=p)).tolist()
        for dst, (lo, hi) in enumerate(zip([0, *ends], ends)):
            if hi > lo:
                outboxes[r][dst] = routed.islice(lo, hi)
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
