"""Deterministic CGM sample sort — the paper's black-box parallel sort (§1).

The paper uses parallel sort as its communication workhorse (§1 cites
Goodrich's communication-efficient sort, which achieves O(1) h-relations
for ``n/p >= p``); Algorithm Construct (§5) sorts its record sets with
:func:`sample_sort_cols`, the classic sample/regular-sampling sort over
:class:`~repro.cgm.columns.RecordBatch` streams:

1. local sort,
2. each processor contributes ``p`` regular samples; all-to-all broadcast,
3. everyone deterministically picks the same ``p-1`` splitters,
4. partition + personalized all-to-all,
5. local merge,
6. balanced redistribution so every processor ends with ``ceil(N/p)``
   items (the paper's sort is balanced; Construct step 3 relies on groups
   of exactly ``n/p`` consecutive records).

Rounds: exactly 4 ``exchange`` rounds regardless of input size — the
constant the theorems require.  Duplicate keys are totally ordered by
``(key, source rank, source index)``, making the sort stable with respect
to the original global order and the whole pipeline deterministic.  The
named key columns plus the source rank/index are encoded once into
fixed-width byte keys (:func:`~repro.cgm.columns.encode_keys`), so every
comparison-heavy step is one ``np.argsort`` / ``np.searchsorted`` and the
routed payloads are whole column arrays.

The per-rank steps (1, 4, 5) are registered SPMD phases, so they execute
wherever the backend's ranks live.

:func:`route_balanced_cols` is step 6 on its own — the §1 prefix-sum
balance, for callers that need ``ceil(N/p)`` rows per rank and no order
(the query demux's report pairs, Theorem 5).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from .collectives import allgather, alltoall_broadcast
from .columns import RecordBatch, encode_keys
from .machine import Machine
from .phases import ProcContext, register_phase

T = TypeVar("T")

__all__ = ["sample_sort_cols", "route_balanced_cols", "sorted_and_balanced"]


def _key_columns(batch: RecordBatch, keyspec: tuple) -> list:
    """Resolve a key spec into 1-D int64 arrays, most significant first.

    A spec entry is a column name — a 1-D column contributes itself, a
    2-D column contributes *all* its columns in order (tuple comparison
    of the rows) — or ``(name, j)`` for one column of a matrix.
    """
    cols: list = []
    for sel in keyspec:
        if isinstance(sel, tuple):
            name, j = sel
            cols.append(np.asarray(batch.col(name))[:, j])
        else:
            mat = np.asarray(batch.col(sel))
            if mat.ndim == 2:
                cols.extend(mat[:, j] for j in range(mat.shape[1]))
            else:
                cols.append(mat)
    return cols


@register_phase("cgm.sort.local_cols")
def _phase_local_sort_cols(ctx: ProcContext, payload) -> list:
    """Steps 1-2: encode keys, argsort, sample.

    The total order ``(key columns, source rank, source index)`` is
    encoded into one fixed-width byte key per row, so one stable
    ``np.argsort`` sorts the run.  The sorted batch stays rank-resident
    under the call's state token; only the samples return.
    """
    batch, keyspec, token = payload
    n = len(batch)
    if not n:
        # nothing to order or sample; the partition step slices nothing
        # out of a zero-row run, so the run needs no key column either
        ctx.charge(1)
        ctx.state[token] = batch
        return []
    key_cols = _key_columns(batch, keyspec)
    key_cols.append(np.full(n, ctx.rank, dtype=np.int64))
    key_cols.append(np.arange(n, dtype=np.int64))
    enc = encode_keys(key_cols, n)
    order = np.argsort(enc, kind="stable")
    ctx.charge(max(1, n) * max(1, n.bit_length()))
    sorted_batch = batch.take(order).with_col("__key", enc[order])
    ctx.state[token] = sorted_batch
    step = max(1, n // ctx.p)
    return [bytes(k) for k in sorted_batch.col("__key")[::step]]


@register_phase("cgm.sort.partition_cols")
def _phase_partition_cols(ctx: ProcContext, payload) -> list:
    """Step 4a: slice the stashed run at the splitters."""
    splitters, token = payload
    batch: RecordBatch = ctx.state.pop(token)
    p = ctx.p
    n = len(batch)
    ctx.charge(n)
    out: list = [None] * p
    if n == 0:
        return out
    enc = batch.col("__key")
    if splitters:
        # side="left": a row *equal* to a splitter lands after it (keys
        # are unique, so the sampled row itself crosses the cut).
        bounds = np.searchsorted(
            enc, np.asarray(splitters, dtype=enc.dtype), side="left"
        )
    else:
        bounds = np.empty(0, dtype=np.int64)
    start = 0
    for dest, bound in enumerate(bounds):
        if bound > start:
            out[dest] = batch.islice(start, int(bound))
        start = int(bound)
    if start < n:
        out[min(len(bounds), p - 1)] = batch.islice(start, n)
    return out


@register_phase("cgm.sort.merge_cols")
def _phase_merge_cols(ctx: ProcContext, payload) -> RecordBatch:
    """Step 5: re-sort the concatenation of the received runs."""
    batch: RecordBatch = payload
    n = len(batch)
    ctx.charge(max(1, n) * max(1, n.bit_length()))
    if not n:
        return batch
    order = np.argsort(batch.col("__key"), kind="stable")
    return batch.take(order)


def _empty_keyed(template: RecordBatch) -> RecordBatch:
    """A zero-row schema batch carrying an empty ``__key`` column."""
    empty = RecordBatch.empty_like(template)
    if "__key" not in empty.cols:
        empty = empty.with_col("__key", np.empty(0, dtype="S1"))
    return empty


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
    keyspec: Sequence[Any],
    label: str = "sort",
    keep_key: bool = False,
) -> list[RecordBatch]:
    """Globally sort distributed record batches by the named key columns.

    Four communication rounds — ``{label}:samples``, ``{label}:route``,
    ``{label}:balance-count`` and ``{label}:balance`` — and a balanced
    ``ceil(N/p)`` rows per rank, in ``(key, source rank, source index)``
    order.  A key spec entry is a column name (a matrix column
    contributes all its columns) or ``(name, j)`` for one matrix column.

    With ``keep_key=True`` the output batches retain the encoded
    ``__key`` column (already riding every sort round, so no extra
    traffic): since :func:`~repro.cgm.columns.encode_keys` biases each
    column independently, a caller needing the encoding of a keyspec
    *prefix* — Construct's tree-rank step wants the tree-id columns it
    just sorted by — can take the key's leading bytes instead of paying
    a second encode over unchanged columns.  Callers must drop the
    column before routing the batch onward.
    """
    p = mach.p
    token = mach.new_ns("sortbuf")
    keyspec = tuple(keyspec)

    samples_per_rank = mach.run_phase(
        f"{label}:local-sort",
        "cgm.sort.local_cols",
        [(batches[r], keyspec, token) for r in range(p)],
    )

    all_samples = alltoall_broadcast(mach, samples_per_rank, label=f"{label}:samples")

    pool = sorted(all_samples[0])
    splitters: list[bytes] = []
    if pool and p > 1:
        step = max(1, len(pool) // p)
        splitters = [pool[j] for j in range(step, len(pool), step)][: p - 1]

    rows = mach.run_phase(
        f"{label}:partition",
        "cgm.sort.partition_cols",
        [(splitters, token)] * p,
    )
    template = _empty_keyed(batches[0])
    inboxes = mach.exchange_batches(f"{label}:route", rows, template)

    merged = mach.run_phase(f"{label}:merge", "cgm.sort.merge_cols", inboxes)

    balanced = route_balanced_cols(mach, merged, f"{label}:balance", template)
    if keep_key:
        return list(balanced)
    return [b.drop("__key") for b in balanced]


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
