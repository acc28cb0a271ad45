"""Column-packed record traffic: struct-of-arrays batches.

The paper's cost model (§1, Theorems 2-5) charges every CGM round by the
*volume* of records moved.  A :class:`RecordBatch` keeps one record
*stream* as named columns of exactly two kinds — an ``np.ndarray``
(int64 ids, ranks, owners and hat rows; ``(n, k)`` matrices for rank
vectors and Definition 2 labels, whose width is fixed per stream) or a
semigroup value :class:`~repro.semigroup.kernels.KernelColumn`, whose
kernel sizes it (see :mod:`repro.semigroup.kernels`) — so sorting is a
``numpy`` argsort over one int64 key column, routing is array slicing,
and backend transport pickles whole arrays.  A batch's ``schema`` names
its stream (the schemas Construct and Search ship are listed in
:mod:`repro.dist.records`); iterating a batch yields one named tuple per
record, its fields named by the columns.

Batches are how Construct, Search, the sort (its samples included) and
the demux move records; only a few small rounds (row counts, root
summaries) still exchange plain Python lists.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from typing import Any, Dict, Iterator, List, Sequence

import numpy as np

from ..semigroup.kernels import KernelColumn

__all__ = [
    "RecordBatch",
    "estimate_nbytes",
    "estimate_object_bytes",
    "estimate_box_nbytes",
]

_I64 = np.int64


# ---------------------------------------------------------------------------
# column kinds
# ---------------------------------------------------------------------------
def _col_take(col: Any, idx: np.ndarray) -> Any:
    return col.take(idx) if isinstance(col, KernelColumn) else col[idx]


def _col_concat(cols: List[Any]) -> Any:
    if isinstance(cols[0], KernelColumn):
        return KernelColumn.concat(cols)
    return np.concatenate(cols)


def _col_nbytes(col: Any) -> int:
    if isinstance(col, KernelColumn):
        # semigroup values: the kernel sizes its own storage
        return col.nbytes
    if col.dtype == object:
        # Estimate object payloads by seeded sampling (exact when empty).
        n = len(col)
        if n == 0:
            return 0
        return estimate_object_bytes(col) + col.nbytes
    return int(col.nbytes)


def _col_rows(col: Any) -> list:
    """A column's cells as Python values: ints, decoded semigroup values,
    one tuple per matrix row."""
    if isinstance(col, KernelColumn):
        return col.to_list()
    if col.ndim == 2:
        return [tuple(row) for row in col.tolist()]
    return col.tolist()


class RecordBatch:
    """One record stream as named columns under a schema name.

    A column is an ``np.ndarray`` (1-D, or 2-D with one row per record)
    or a :class:`~repro.semigroup.kernels.KernelColumn`; the hot paths
    read the columns directly (``col``, ``take``, ``concat``) and
    transport pickles whole arrays.  Iterating yields one named tuple
    per record, its fields named by the columns.

    Internal helper columns (the demux's rank tags) use ``__``-prefixed
    names; :meth:`drop` removes them before a batch goes public.
    """

    __slots__ = ("schema", "cols", "_len")

    def __init__(self, schema: str, cols: Dict[str, Any], length: "int | None" = None) -> None:
        self.schema = schema
        self.cols = cols
        if length is None:
            length = len(next(iter(cols.values()))) if cols else 0
        self._len = int(length)

    @classmethod
    def empty_like(cls, template: "RecordBatch") -> "RecordBatch":
        return template.take(np.empty(0, dtype=_I64))

    # -- row view ------------------------------------------------------------
    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple]:
        # helper columns are not identifiers: ``rename`` numbers them
        row = namedtuple("Row", list(self.cols), rename=True)
        return map(row._make, zip(*map(_col_rows, self.cols.values())))

    # -- columnar view -----------------------------------------------------
    def col(self, name: str) -> Any:
        return self.cols[name]

    def with_col(self, name: str, col: Any) -> "RecordBatch":
        cols = dict(self.cols)
        cols[name] = col
        return RecordBatch(self.schema, cols, self._len)

    def drop(self, *names: str) -> "RecordBatch":
        cols = {k: v for k, v in self.cols.items() if k not in names}
        return RecordBatch(self.schema, cols, self._len)

    def take(self, idx: np.ndarray) -> "RecordBatch":
        idx = np.asarray(idx, dtype=_I64)
        return RecordBatch(
            self.schema,
            {k: _col_take(v, idx) for k, v in self.cols.items()},
            len(idx),
        )

    def islice(self, start: int, stop: int) -> "RecordBatch":
        cols = {k: v[start:stop] for k, v in self.cols.items()}
        return RecordBatch(self.schema, cols, stop - start)

    @classmethod
    def concat(cls, batches: Sequence["RecordBatch"]) -> "RecordBatch":
        batches = [b for b in batches if b is not None]
        if not batches:
            raise ValueError("concat needs at least one batch")
        # zero-row batches add no rows: skip their column concatenation
        batches = [b for b in batches if len(b)] or batches[:1]
        if len(batches) == 1:
            return batches[0]
        first = batches[0]
        cols = {
            k: _col_concat([b.cols[k] for b in batches]) for k in first.cols
        }
        return cls(first.schema, cols, sum(len(b) for b in batches))

    @property
    def nbytes(self) -> int:
        """Bytes of column storage (object payloads estimated by sampling)."""
        return sum(_col_nbytes(c) for c in self.cols.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RecordBatch({self.schema!r}, n={self._len}, "
            f"cols={list(self.cols)})"
        )


# ---------------------------------------------------------------------------
# bytes estimation for record-list rounds
# ---------------------------------------------------------------------------
_SCALAR_NBYTES = {int: 28, float: 24, bool: 28, type(None): 16}


def estimate_nbytes(obj: Any, _depth: int = 0) -> int:
    """Cheap structural size estimate of one record (bytes).

    Exact for numpy arrays; shallow-recursive (two levels) for tuples,
    lists, and slotted/dataclass records; ``sys.getsizeof`` otherwise.
    Used to attribute routed bytes to record-list rounds (summaries,
    broadcast roots, replicated stores) — batch rounds report exact column
    nbytes instead.
    """
    t = type(obj)
    fixed = _SCALAR_NBYTES.get(t)
    if fixed is not None:
        return fixed
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes) + 112
    if t in (str, bytes):
        return sys.getsizeof(obj)
    if _depth >= 2:
        return sys.getsizeof(obj)
    if t in (tuple, list):
        return sys.getsizeof(obj) + sum(
            estimate_nbytes(v, _depth + 1) for v in obj
        )
    if t is dict:
        return sys.getsizeof(obj) + sum(
            estimate_nbytes(k, 2) + estimate_nbytes(v, _depth + 1)
            for k, v in obj.items()
        )
    slots = getattr(t, "__slots__", None)
    if slots is not None:
        return 48 + sum(
            estimate_nbytes(getattr(obj, s), _depth + 1)
            for s in slots
            if hasattr(obj, s)
        )
    return sys.getsizeof(obj)


#: Fixed seed of the object-bytes samplers.  The sample positions are a
#: pure function of the stream length — never of wall clock,
#: hashing salt, or iteration state — so the ``comm_bytes`` of
#: record-list rounds are reproducible run to run (and across backends,
#: which route the same streams in the same order).
ESTIMATE_SAMPLE_SEED = 0xC61A


def estimate_object_bytes(items: Sequence[Any], k: int = 8) -> int:
    """Estimated payload bytes of an object stream, by seeded sampling.

    Reads ``k`` positions one stride (``n / k``) apart, starting at
    ``(ESTIMATE_SAMPLE_SEED ^ n) % n`` — plain arithmetic, no generator
    object, since this runs once per routed stream on the hot path —
    estimates each with :func:`estimate_nbytes`, and extrapolates the
    mean: O(1) per stream, deterministic run to run, and less biased than
    head-only sampling when a stream's early records are unrepresentative.
    Exact (full sum) when the stream has at most ``k`` items.
    """
    n = len(items)
    if n == 0:
        return 0
    if n <= k:
        return sum(estimate_nbytes(items[i]) for i in range(n))
    start = (ESTIMATE_SAMPLE_SEED ^ n) % n
    sampled = sum(estimate_nbytes(items[(start + i * n // k) % n]) for i in range(k))
    return int(sampled * n / k)


def estimate_box_nbytes(box: Sequence[Any]) -> int:
    """Estimated bytes of one outbox record list, by seeded sampling.

    Record streams within a round are homogeneous, so a few sampled
    records extrapolate well at O(1) cost per box — byte accounting
    must not slow the round it accounts for.
    """
    return estimate_object_bytes(box, k=4)
