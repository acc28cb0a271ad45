"""The paper's standard communication operations (§1, *The Model*).

    "all global communications are performed by a small set of standard
    communications operations: Segmented broadcast, Segmented gather,
    All-to-All broadcast, Personalized All-to-All broadcast, Partial sum
    and Sort"

Each primitive here completes in a constant number of ``exchange`` rounds
on the :class:`~repro.cgm.machine.Machine` (most in exactly one), matching
the claim that on a machine without hardware support they reduce to O(1)
sorts.  Items are assumed to live in *global rank-major order*: the global
sequence is processor 0's list, then processor 1's, etc.  (Sort — the sixth
primitive — lives in :mod:`repro.cgm.sort`.)
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from ..errors import ProtocolError
from .columns import RecordBatch
from .machine import Machine

T = TypeVar("T")
V = TypeVar("V")

__all__ = [
    "alltoallv",
    "alltoall_broadcast",
    "allgather",
    "broadcast",
    "gather",
    "scatter",
    "allreduce",
    "partial_sum",
    "segmented_partial_sum",
    "segmented_broadcast",
    "segmented_gather",
    "route",
    "route_batches",
    "route_balanced",
    "global_positions",
]


# ---------------------------------------------------------------------------
# point-to-point style primitives
# ---------------------------------------------------------------------------
def alltoallv(
    mach: Machine,
    outboxes: Sequence[Sequence[Sequence[Any]]],
    label: str = "alltoallv",
) -> list[list[Any]]:
    """Personalized all-to-all broadcast: route arbitrary per-destination lists."""
    return mach.exchange(label, outboxes)


def route(
    mach: Machine,
    locals_: Sequence[Sequence[T]],
    dest_fn: Callable[[int, T], int],
    label: str = "route",
) -> list[list[T]]:
    """Send each item to ``dest_fn(rank, item)``; one h-relation."""
    out = mach.empty_outboxes()
    for r in range(mach.p):
        for item in locals_[r]:
            d = dest_fn(r, item)
            if not 0 <= d < mach.p:
                raise ProtocolError(f"destination {d} out of range for p={mach.p}")
            out[r][d].append(item)
    return mach.exchange(label, out)


def route_batches(
    mach: Machine,
    batches: Sequence[RecordBatch],
    dests: Sequence[np.ndarray],
    label: str = "route",
    template: "RecordBatch | None" = None,
) -> list[RecordBatch]:
    """Columnar :func:`route`: row ``i`` of ``batches[r]`` goes to rank
    ``dests[r][i]``; one h-relation of whole column packs.

    Rows keep their relative order per ``(source, destination)`` pair —
    one ``take`` per destination over the ascending row indices — so the
    deterministic inbox merge is byte-for-byte :func:`route`'s.
    ``template`` shapes empty inboxes (any batch of the stream's schema).
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


def broadcast(mach: Machine, root: int, value: T, label: str = "broadcast") -> list[T]:
    """Root sends one value to everyone; returns the per-rank received values."""
    out = mach.empty_outboxes()
    for dst in range(mach.p):
        out[root][dst] = [value]
    inboxes = mach.exchange(label, out)
    return [box[0] for box in inboxes]


def gather(
    mach: Machine, values: Sequence[T], root: int, label: str = "gather"
) -> list[T] | None:
    """Every rank sends one value to the root; root gets them rank-ordered."""
    if len(values) != mach.p:
        raise ProtocolError(f"gather needs one value per rank, got {len(values)}")
    out = mach.empty_outboxes()
    for src in range(mach.p):
        out[src][root] = [values[src]]
    inboxes = mach.exchange(label, out)
    return inboxes[root]


def scatter(
    mach: Machine, root: int, chunks: Sequence[T], label: str = "scatter"
) -> list[T]:
    """Root sends chunk ``i`` to rank ``i``."""
    if len(chunks) != mach.p:
        raise ProtocolError(f"scatter needs one chunk per rank, got {len(chunks)}")
    out = mach.empty_outboxes()
    for dst in range(mach.p):
        out[root][dst] = [chunks[dst]]
    inboxes = mach.exchange(label, out)
    return [box[0] for box in inboxes]


def allreduce(
    mach: Machine,
    values: Sequence[V],
    op: Callable[[V, V], V],
    label: str = "allreduce",
) -> V:
    """Combine one value per rank with ``op`` (everyone learns the result)."""
    gathered = allgather(mach, values, label=label)
    acc = gathered[0][0]
    for v in gathered[0][1:]:
        acc = op(acc, v)
    return acc


# ---------------------------------------------------------------------------
# scans (Partial sum) — one round each
# ---------------------------------------------------------------------------
def global_positions(
    mach: Machine, locals_: Sequence[Sequence[Any]], label: str = "positions"
) -> tuple[list[list[int]], int]:
    """Global rank-major position of every item, plus the total count."""
    counts = [len(x) for x in locals_]
    all_counts = allgather(mach, counts, label=label)[0]
    total = sum(all_counts)
    positions: list[list[int]] = []
    for r in range(mach.p):
        base = sum(all_counts[:r])
        positions.append(list(range(base, base + counts[r])))
    return positions, total


def partial_sum(
    mach: Machine,
    locals_: Sequence[Sequence[V]],
    op: Callable[[V, V], V],
    zero: V,
    label: str = "partial-sum",
) -> list[list[V]]:
    """Inclusive prefix sums over the global rank-major item sequence."""
    local_totals: list[V] = []
    local_prefix: list[list[V]] = []
    for r in range(mach.p):
        acc = zero
        pref = []
        for v in locals_[r]:
            acc = op(acc, v)
            pref.append(acc)
        local_totals.append(acc)
        local_prefix.append(pref)
    totals = allgather(mach, local_totals, label=label)[0]
    out: list[list[V]] = []
    for r in range(mach.p):
        carry = zero  # `zero` must be a true identity of `op`
        for q in range(r):
            carry = op(carry, totals[q])
        out.append([op(carry, v) for v in local_prefix[r]])
    return out


def segmented_partial_sum(
    mach: Machine,
    locals_: Sequence[Sequence[tuple[Any, V]]],
    op: Callable[[V, V], V],
    zero: V,
    label: str = "seg-partial-sum",
) -> list[list[V]]:
    """Inclusive prefix sums restarting at every new segment id.

    Items are ``(segment_id, value)`` pairs; equal ids must be globally
    contiguous in rank-major order (the usual post-sort situation, e.g.
    Algorithm AssociativeFunction step 4).  One communication round.
    """
    local_prefix: list[list[V]] = []
    summaries: list[tuple[Any, V, Any, V, bool]] = []
    for r in range(mach.p):
        pref: list[V] = []
        acc = zero
        cur_seg: Any = None
        first_seg: Any = None
        single = True
        for seg, v in locals_[r]:
            if first_seg is None:
                first_seg = seg
                cur_seg = seg
            if seg != cur_seg:
                acc = zero
                cur_seg = seg
                single = False
            acc = op(acc, v)
            pref.append(acc)
        last_total = acc
        summaries.append((first_seg, zero, cur_seg, last_total, single))
        local_prefix.append(pref)
    info = allgather(mach, summaries, label=label)[0]
    out: list[list[V]] = []
    for r in range(mach.p):
        items = locals_[r]
        pref = list(local_prefix[r])
        if items:
            first_seg = items[0][0]
            # carry from earlier processors whose trailing run is the same segment
            carry = zero
            q = r - 1
            while q >= 0:
                f_seg, _z, l_seg, l_total, single = info[q]
                if f_seg is None:  # empty processor: look further left
                    q -= 1
                    continue
                if l_seg != first_seg:
                    break
                carry = op(l_total, carry)
                if not single:
                    break
                q -= 1
            for i, (seg, _v) in enumerate(items):
                if seg != first_seg:
                    break
                pref[i] = op(carry, pref[i])
        out.append(pref)
    return out


# ---------------------------------------------------------------------------
# segmented broadcast / gather
# ---------------------------------------------------------------------------
def segmented_broadcast(
    mach: Machine,
    locals_: Sequence[Sequence[tuple[bool, Any]]],
    label: str = "seg-bcast",
) -> list[list[Any]]:
    """Fill every item with the value of the nearest *head* at or before it.

    Items are ``(is_head, value)`` pairs in global rank-major order; heads
    carry the value to broadcast, non-heads' values are ignored.  Items
    before the first head receive ``None``.  One communication round.
    """
    filled: list[list[Any]] = []
    last_heads: list[Any] = []
    has_heads: list[bool] = []
    for r in range(mach.p):
        cur: Any = None
        seen = False
        vals = []
        for is_head, v in locals_[r]:
            if is_head:
                cur = v
                seen = True
            vals.append(cur)
        filled.append(vals)
        last_heads.append(cur)
        has_heads.append(seen)
    info = allgather(mach, list(zip(has_heads, last_heads)), label=label)[0]
    out: list[list[Any]] = []
    for r in range(mach.p):
        carry: Any = None
        for q in range(r - 1, -1, -1):
            if info[q][0]:
                carry = info[q][1]
                break
        vals = list(filled[r])
        for i, (is_head, _v) in enumerate(locals_[r]):
            if is_head:
                break
            vals[i] = carry
        out.append(vals)
    return out


def segmented_gather(
    mach: Machine,
    locals_: Sequence[Sequence[tuple[Any, Any]]],
    head_owner: Callable[[Any], int],
    label: str = "seg-gather",
) -> list[dict[Any, list[Any]]]:
    """Collect all items of each segment at the segment head's processor.

    Items are ``(segment_id, value)`` pairs; ``head_owner(segment_id)``
    names the destination rank.  Returns, per rank, a dict
    ``segment_id -> values`` (source-rank order preserved).
    """
    inboxes = route(
        mach,
        locals_,
        lambda _r, item: head_owner(item[0]),
        label=label,
    )
    out: list[dict[Any, list[Any]]] = []
    for box in inboxes:
        d: dict[Any, list[Any]] = {}
        for seg, v in box:
            d.setdefault(seg, []).append(v)
        out.append(d)
    return out


# ---------------------------------------------------------------------------
# balanced redistribution
# ---------------------------------------------------------------------------
def route_balanced(
    mach: Machine,
    locals_: Sequence[Sequence[T]],
    label: str = "rebalance",
) -> list[list[T]]:
    """Redistribute items so every rank holds ``ceil(total/p)`` or fewer,
    preserving global rank-major order.  Two rounds (count + route)."""
    positions, total = global_positions(mach, locals_, label=f"{label}-count")
    chunk = -(-total // mach.p)  # ceil division
    out = mach.empty_outboxes()
    for r in range(mach.p):
        for pos, item in zip(positions[r], locals_[r]):
            out[r][min(pos // chunk, mach.p - 1)].append(item)
    return mach.exchange(label, out)
