"""Deterministic CGM sample sort — the paper's black-box parallel sort (§1).

The paper uses parallel sort as its communication workhorse (§1 cites
Goodrich's communication-efficient sort, which achieves O(1) h-relations
for ``n/p >= p``); Algorithm Construct (§5) sorts its record sets with
:func:`sample_sort_cols`, the classic sample/regular-sampling sort over
:class:`~repro.cgm.columns.RecordBatch` streams:

1. local sort,
2. each processor contributes ``p`` regular samples; all-to-all broadcast,
3. the same ``p-1`` splitters for everyone, picked once from the pool,
4. partition + personalized all-to-all,
5. local merge,
6. balanced redistribution so every processor ends with ``ceil(N/p)``
   items (the paper's sort is balanced; Construct step 3 relies on groups
   of exactly ``n/p`` consecutive records).

Rounds: exactly 4 ``exchange`` rounds regardless of input size — the
constant the theorems require.  Rows order by one int64 key column, and
duplicate keys are totally ordered by ``(key, source rank, source
index)``, making the sort stable with respect to the original global
order and the whole pipeline deterministic — without encoding that
triple.  The local sort is an exact stable order at quicksort cost
(:func:`~repro._util.stable_argsort`: ties keep source index order); a
sample and a splitter are ``(key, rank, index)`` rows; the partition
cuts a run with ``searchsorted`` on the key, plus one on the run's
source indices for a splitter sampled from this rank; the merge is a
timsort (``kind="stable"``) of an inbox that arrives as ``p`` sorted
runs ordered by source rank, which it merges as fast as the quicksort
route sorts them.  The routed payloads are whole column arrays, and the
key travels as the column it already is.

The per-rank steps (1, 4, 5) are registered SPMD phases, so they execute
wherever the backend's ranks live.

:func:`route_balanced_cols` is step 6 on its own — the §1 prefix-sum
balance, for callers that need ``ceil(N/p)`` rows per rank and no order
(the query demux's report pairs, Theorem 5).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from .._util import stable_argsort
from .collectives import allgather
from .columns import RecordBatch
from .machine import Machine
from .phases import ProcContext, register_phase

T = TypeVar("T")

__all__ = ["sample_sort_cols", "route_balanced_cols", "sorted_and_balanced"]


@register_phase("cgm.sort.local_cols")
def _phase_local_sort_cols(ctx: ProcContext, payload) -> RecordBatch:
    """Steps 1-2: stable order by the key column, sample.

    The sorted run stays rank-resident under the call's state token,
    beside each row's source index (the argsort itself); only the
    samples return: the ``(key, rank, index)`` of every ``n // p``-th
    row of the run (at least every row).
    """
    batch, key, token = payload
    n = len(batch)
    order = stable_argsort(batch.col(key))
    ctx.charge(max(1, n) * max(1, n.bit_length()))
    run = batch.take(order)
    ctx.state[token] = (run, order)
    step = max(1, n // ctx.p)
    index = order[::step]
    return RecordBatch(
        "cgm.sort.sample",
        {
            "key": run.col(key)[::step],
            "rank": np.full(len(index), ctx.rank, dtype=np.int64),
            "index": index,
        },
    )


@register_phase("cgm.sort.partition_cols")
def _phase_partition_cols(ctx: ProcContext, payload) -> list:
    """Step 4a: slice the stashed run at the splitters.

    A row goes before splitter ``(k, r, i)`` when its key is below ``k``;
    on a key tie, when this rank is below ``r`` — or is ``r`` and the
    row's source index is below ``i`` (the sampled row itself crosses
    the cut).
    """
    splitters, key, token = payload
    batch, source = ctx.state.pop(token)
    p = ctx.p
    n = len(batch)
    ctx.charge(n)
    out: list = [None] * p
    if n == 0:
        return out
    keys = batch.col(key)
    lo = np.searchsorted(keys, splitters[:, 0], side="left")
    hi = np.searchsorted(keys, splitters[:, 0], side="right")
    bounds = np.where(splitters[:, 1] > ctx.rank, hi, lo)
    for s in np.flatnonzero(splitters[:, 1] == ctx.rank).tolist():
        bounds[s] += np.searchsorted(source[lo[s] : hi[s]], splitters[s, 2])
    start = 0
    for dest, bound in enumerate(bounds.tolist()):
        if bound > start:
            out[dest] = batch.islice(start, bound)
        start = bound
    if start < n:
        out[min(len(bounds), p - 1)] = batch.islice(start, n)
    return out


@register_phase("cgm.sort.merge_cols")
def _phase_merge_cols(ctx: ProcContext, payload) -> RecordBatch:
    """Step 5: re-sort the concatenation of the received runs.

    The inbox arrives ordered by source rank, each run by ``(key,
    index)``, so a stable argsort by key is the ``(key, rank, index)``
    order.
    """
    batch, key = payload
    n = len(batch)
    ctx.charge(max(1, n) * max(1, n.bit_length()))
    if not n:
        return batch
    return batch.take(np.argsort(batch.col(key), kind="stable"))


def route_balanced_cols(
    mach: Machine,
    batches: Sequence[RecordBatch],
    label: str,
    template: RecordBatch,
) -> list[RecordBatch]:
    """Balanced redistribution of batches (2 rounds: ``{label}-count``,
    an all-gather of row counts, then ``label``): rank-major order is kept
    and every rank ends with at most ``ceil(N/p)`` rows."""
    p = mach.p
    counts = [len(b) for b in batches]
    all_counts = allgather(mach, counts, label=f"{label}-count")[0]
    chunk = -(-sum(all_counts) // p)
    outboxes: list[list] = [[None] * p for _ in range(p)]
    base = 0
    for r in range(p):
        n = counts[r]
        if n:
            # this rank's rows occupy global positions [base, base + n);
            # destination d owns [d*chunk, (d+1)*chunk) (last takes the rest)
            for d in range(min(base // chunk, p - 1), p):
                lo = max(base, d * chunk)
                hi = base + n if d == p - 1 else min(base + n, (d + 1) * chunk)
                if hi > lo:
                    outboxes[r][d] = batches[r].islice(lo - base, hi - base)
                if hi >= base + n:
                    break
        base += all_counts[r]
    return mach.exchange_batches(label, outboxes, template)


def sample_sort_cols(
    mach: Machine,
    batches: Sequence[RecordBatch],
    key: str,
    label: str = "sort",
) -> list[RecordBatch]:
    """Globally sort distributed record batches by one int64 key column.

    Four communication rounds — ``{label}:samples``, ``{label}:route``,
    ``{label}:balance-count`` and ``{label}:balance`` — and a balanced
    ``ceil(N/p)`` rows per rank, in ``(key, source rank, source index)``
    order.
    """
    p = mach.p
    token = mach.new_ns("sortbuf")

    samples_per_rank = mach.run_phase(
        f"{label}:local-sort",
        "cgm.sort.local_cols",
        [(batches[r], key, token) for r in range(p)],
    )

    # all-to-all broadcast: every rank receives every sample
    pool = mach.exchange_batches(
        f"{label}:samples", [[s] * p for s in samples_per_rank], samples_per_rank[0]
    )[0]
    # every rank would pick the same p-1 splitters: pick them once
    samples = np.stack([pool.col("key"), pool.col("rank"), pool.col("index")], axis=1)
    order = np.lexsort(samples.T[::-1])
    step = max(1, len(order) // p)
    splitters = samples[order[step::step][: p - 1]]

    rows = mach.run_phase(
        f"{label}:partition",
        "cgm.sort.partition_cols",
        [(splitters, key, token)] * p,
    )
    inboxes = mach.exchange_batches(f"{label}:route", rows, batches[0])

    merged = mach.run_phase(
        f"{label}:merge", "cgm.sort.merge_cols", [(inbox, key) for inbox in inboxes]
    )

    return route_balanced_cols(mach, merged, f"{label}:balance", batches[0])


def sorted_and_balanced(
    mach: Machine,
    locals_: Sequence[Sequence[T]],
    key: Callable[[T], Any],
) -> bool:
    """Check (locally, no communication) that output of a sort is valid."""
    prev: Any = None
    for r in range(mach.p):
        for it in locals_[r]:
            k = key(it)
            if prev is not None and k < prev:
                return False
            prev = k
    counts = [len(x) for x in locals_]
    total = sum(counts)
    cap = -(-total // mach.p)
    return all(c <= cap for c in counts)
