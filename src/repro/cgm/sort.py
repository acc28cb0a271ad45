"""Deterministic CGM sample sort — the paper's black-box parallel sort (§1).

The paper uses parallel sort as its communication workhorse (§1 cites
Goodrich's communication-efficient sort, which achieves O(1) h-relations
for ``n/p >= p``); Algorithm Construct (§5) sorts record sets, and the
search/report algorithms (§5, Theorems 3-5) sort query-result pairs.  This implementation is the classic
sample/regular-sampling sort:

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
to the original global order and the whole pipeline deterministic.

The per-rank steps (1, 4, 5) are registered SPMD phases, so they execute
wherever the backend's ranks live; items and the ``key`` callable must be
picklable to sort on the process backend (module-level functions,
``functools.partial`` and ``operator.itemgetter`` all qualify; lambdas
restrict the sort to in-process backends).

Two forms share the round structure:

* :func:`sample_sort` — the generic record-list form (the §1 toolbox
  primitive, and the reference the batch form is property-tested
  against): items are arbitrary Python objects, compared by
  ``(key(item), source rank, source index)`` tuples.
* :func:`sample_sort_cols` — the batch form Construct uses: items are
  :class:`~repro.cgm.columns.RecordBatch` streams; the named key columns
  (plus implicit source rank/index columns for the same total order) are
  encoded once into fixed-width byte keys
  (:func:`~repro.cgm.columns.encode_keys`) and every comparison-heavy
  step becomes one ``np.argsort`` / ``np.searchsorted``.  Both forms
  run exactly the same 4 rounds under the same labels.

:func:`route_balanced_cols` is step 6 on its own — the §1 prefix-sum
balance, for callers that need ``ceil(N/p)`` rows per rank and no order
(the query demux's report pairs, Theorem 5).
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from .collectives import allgather, alltoall_broadcast, route_balanced
from .columns import RecordBatch, encode_keys
from .machine import Machine
from .phases import ProcContext, register_phase

T = TypeVar("T")

__all__ = ["sample_sort", "sample_sort_cols", "route_balanced_cols", "sorted_and_balanced"]


def _first3(t: tuple) -> tuple:
    return t[:3]


@register_phase("cgm.sort.local")
def _phase_local_sort(ctx: ProcContext, payload) -> list:
    """Steps 1-2: decorate with ``(key, rank, index)``, sort, sample.

    The decorated run stays *rank-resident* (stashed under the call's
    state token) until the partition phase consumes it — only the tiny
    sample set returns to the driver, saving two full-data crossings per
    sort on the process backend.
    """
    items, key, token = payload
    r = ctx.rank
    decorated = [(key(it), r, i, it) for i, it in enumerate(items)]
    decorated.sort(key=_first3)
    ctx.charge(max(1, len(decorated)) * max(1, len(decorated).bit_length()))
    ctx.state[token] = decorated
    samples: list = []
    m = len(decorated)
    if m:
        step = max(1, m // ctx.p)
        samples = [decorated[j][:3] for j in range(0, m, step)]
    return samples


@register_phase("cgm.sort.partition")
def _phase_partition(ctx: ProcContext, payload) -> list:
    """Step 4a: split the stashed run at the splitters; returns the outbox row."""
    splitters, token = payload
    decorated = ctx.state.pop(token)
    p = ctx.p
    out: list[list] = [[] for _ in range(p)]
    for item in decorated:
        dest = bisect.bisect_right(splitters, item[:3])
        out[min(dest, p - 1)].append(item)
    ctx.charge(len(decorated))
    return out


@register_phase("cgm.sort.merge")
def _phase_merge(ctx: ProcContext, payload) -> list:
    """Step 5: merge the received sorted runs."""
    items = sorted(payload, key=_first3)
    ctx.charge(max(1, len(items)) * max(1, len(items).bit_length()))
    return items


def sample_sort(
    mach: Machine,
    locals_: Sequence[Sequence[T]],
    key: Callable[[T], Any],
    label: str = "sort",
) -> list[list[T]]:
    """Globally sort the distributed items by ``key``; balanced output.

    Returns per-rank lists whose concatenation (rank-major) is the sorted
    global sequence, with every rank holding at most ``ceil(N/p)`` items.
    """
    p = mach.p
    token = mach.new_ns("sortbuf")

    # Step 1-2: local sort and regular sampling (local computation).
    samples_per_rank = mach.run_phase(
        f"{label}:local-sort",
        "cgm.sort.local",
        [(list(locals_[r]), key, token) for r in range(p)],
    )

    # Step 2b: all-to-all broadcast of samples (1 round).
    all_samples = alltoall_broadcast(mach, samples_per_rank, label=f"{label}:samples")

    # Step 3: identical splitter choice everywhere (deterministic).
    pool = sorted(all_samples[0])
    splitters: list[tuple[Any, int, int]] = []
    if pool and p > 1:
        step = max(1, len(pool) // p)
        splitters = [pool[j] for j in range(step, len(pool), step)][: p - 1]

    # Step 4: partition by splitters and route (1 round).
    out = mach.run_phase(
        f"{label}:partition",
        "cgm.sort.partition",
        [(splitters, token)] * p,
    )
    inboxes = mach.exchange(f"{label}:route", out)

    # Step 5: local merge (receivers hold sorted runs from each source).
    merged = mach.run_phase(f"{label}:merge", "cgm.sort.merge", inboxes)

    # Step 6: balanced redistribution (2 rounds: count + route).
    balanced = route_balanced(mach, merged, label=f"{label}:balance")
    return [[t[3] for t in box] for box in balanced]


# ---------------------------------------------------------------------------
# the batch form: batches sort by encoded key columns
# ---------------------------------------------------------------------------
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
    """Columnar steps 1-2: encode keys, argsort, sample.

    The same total order as :func:`sample_sort` — ``(key columns, source
    rank, source index)`` — encoded into one fixed-width byte key per
    row, so one stable ``np.argsort`` replaces the comparator tuples.
    The sorted batch stays rank-resident under the call's state token.
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
    """Columnar step 4a: slice the stashed run at the splitters."""
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
        # side="left": a row *equal* to a splitter lands after it, exactly
        # like :func:`sample_sort`'s ``bisect_right`` over the item tuples
        # (keys are unique, so the sampled row itself crosses the cut).
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
    """Columnar step 5: re-sort the concatenation of the received runs."""
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

    The columnar twin of :func:`sample_sort`: same 4 communication
    rounds under the same labels, same balanced ``ceil(N/p)`` output,
    same ``(key, source rank, source index)`` total order — but every
    local step is an ``np.argsort``/``np.searchsorted`` over encoded key
    bytes and the routed payloads are whole column arrays.

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
