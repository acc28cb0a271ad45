"""Column-packed record traffic: struct-of-arrays batches.

The paper's cost model (§1, Theorems 2-5) charges every CGM round by the
*volume* of records moved, yet a frozen dataclass per record makes the
hot paths pay per-object allocation, per-object comparison in the sample
sort, and per-object pickling across the process backend.  This module
is the batch-packed alternative: a :class:`RecordBatch` keeps one record
*stream* as typed column packs — int64 arrays for ids/ranks/owners,
:class:`Ragged` int columns for variable-length paths, and an object
column only where semigroup values require one (builtin semigroups ride
as typed :class:`~repro.semigroup.kernels.KernelColumn` matrices with
exact byte accounting; see :mod:`repro.semigroup.kernels`) — so sorting
becomes ``numpy`` argsort over encoded key columns, routing becomes array
slicing, and backend transport pickles whole arrays instead of object
lists.

The dataclass record types (:mod:`repro.dist.records`) remain the
public, per-record view: every batch carries a :class:`RecordCodec`
registered for its record type, iterating a batch lazily *unpacks*
dataclass records one at a time, and ``pack → route → unpack`` is an
identity on the record stream (property-tested).

``encode_keys`` is the sort workhorse: ``k`` int64 key columns become
one big-endian byte string per row whose lexicographic (bytes) order
equals the row-wise tuple order — a single ``np.argsort`` /
``np.searchsorted`` then stands in for Python comparator tuples.

Batches are the only representation Construct, Search and the demux
move; the record-list primitives of :mod:`repro.cgm.sort` and
:mod:`repro.cgm.collectives` remain as the §1 reference toolbox the
``*_cols`` property tests compare against.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..semigroup.kernels import KernelColumn

__all__ = [
    "Ragged",
    "RecordBatch",
    "RecordCodec",
    "obj_col",
    "register_codec",
    "codec_for",
    "codec_for_type",
    "registered_codecs",
    "encode_keys",
    "estimate_nbytes",
    "estimate_object_bytes",
    "estimate_box_nbytes",
]

_I64 = np.int64


# ---------------------------------------------------------------------------
# column kinds
# ---------------------------------------------------------------------------
class Ragged:
    """A ragged int64 column: per-row integer tuples of varying length.

    Stored as one flat value array plus ``offsets`` (length ``n + 1``):
    row ``i`` is ``flat[offsets[i]:offsets[i+1]]``.  Used for the
    Definition 2 path/tree-id columns, whose length varies with the
    construction phase, and for report-mode pid lists.
    """

    __slots__ = ("flat", "offsets")

    def __init__(self, flat: np.ndarray, offsets: np.ndarray) -> None:
        self.flat = np.asarray(flat, dtype=_I64)
        self.offsets = np.asarray(offsets, dtype=_I64)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "Ragged":
        lengths = np.fromiter((len(r) for r in rows), dtype=_I64, count=len(rows))
        offsets = np.zeros(len(rows) + 1, dtype=_I64)
        np.cumsum(lengths, out=offsets[1:])
        flat = np.empty(int(offsets[-1]), dtype=_I64)
        for i, r in enumerate(rows):
            flat[offsets[i] : offsets[i + 1]] = r
        return cls(flat, offsets)

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "Ragged":
        """Uniform-width rows from a 2-D int array (width may be zero)."""
        mat = np.ascontiguousarray(mat, dtype=_I64)
        n, w = mat.shape
        offsets = np.arange(n + 1, dtype=_I64) * w
        return cls(mat.reshape(-1), offsets)

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def row(self, i: int) -> np.ndarray:
        return self.flat[self.offsets[i] : self.offsets[i + 1]]

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def nbytes(self) -> int:
        return int(self.flat.nbytes + self.offsets.nbytes)

    def uniform_width(self) -> "int | None":
        """The common row width, or ``None`` when rows differ."""
        n = len(self)
        if n == 0:
            return 0
        lengths = self.lengths
        w = int(lengths[0])
        return w if bool(np.all(lengths == w)) else None

    def as_matrix(self) -> np.ndarray:
        """The rows as an ``(n, w)`` matrix (requires uniform width)."""
        w = self.uniform_width()
        if w is None:
            raise ValueError("ragged column has non-uniform row widths")
        return self.flat.reshape(len(self), w)

    def take(self, idx: np.ndarray) -> "Ragged":
        idx = np.asarray(idx, dtype=_I64)
        if not len(idx):
            return Ragged(self.flat[:0], np.zeros(1, dtype=_I64))
        lengths = self.lengths[idx]
        offsets = np.zeros(len(idx) + 1, dtype=_I64)
        np.cumsum(lengths, out=offsets[1:])
        total = int(offsets[-1])
        if total == 0:
            return Ragged(np.empty(0, dtype=_I64), offsets)
        starts = self.offsets[idx]
        # flat gather: position r of output row i reads flat[starts[i] + r]
        pos = (
            np.arange(total, dtype=_I64)
            - np.repeat(offsets[:-1], lengths)
            + np.repeat(starts, lengths)
        )
        return Ragged(self.flat[pos], offsets)

    @classmethod
    def concat(cls, cols: Sequence["Ragged"]) -> "Ragged":
        if not cols:
            return cls(np.empty(0, dtype=_I64), np.zeros(1, dtype=_I64))
        flat = np.concatenate([c.flat for c in cols])
        n = sum(len(c) for c in cols)
        offsets = np.zeros(n + 1, dtype=_I64)
        base = 0
        pos = 1
        for c in cols:
            k = len(c)
            offsets[pos : pos + k] = c.offsets[1:] + base
            base += int(c.offsets[-1])
            pos += k
        return cls(flat, offsets)


def obj_col(values: Sequence[Any]) -> np.ndarray:
    """An object column: numpy object array (fancy-indexable).

    The one column kind reserved for semigroup values — everything else
    in a batch is typed int storage.
    """
    col = np.empty(len(values), dtype=object)
    for i, v in enumerate(values):
        col[i] = v
    return col


def _col_len(col: Any) -> int:
    return len(col)


def _col_take(col: Any, idx: np.ndarray) -> Any:
    if isinstance(col, (Ragged, KernelColumn)):
        return col.take(idx)
    return col[idx]


def _col_concat(cols: List[Any]) -> Any:
    if isinstance(cols[0], Ragged):
        return Ragged.concat(cols)
    if isinstance(cols[0], KernelColumn):
        return KernelColumn.concat(cols)
    return np.concatenate(cols)


def _col_nbytes(col: Any) -> int:
    if isinstance(col, (Ragged, KernelColumn)):
        # Typed storage: exact bytes, no sampling (the kernel engine's
        # byte-accounting guarantee for value columns).
        return col.nbytes
    if col.dtype == object:
        # Estimate object payloads by seeded sampling (exact when empty).
        n = len(col)
        if n == 0:
            return 0
        return estimate_object_bytes(col) + col.nbytes
    return int(col.nbytes)


# ---------------------------------------------------------------------------
# codecs: per-record-type pack/unpack
# ---------------------------------------------------------------------------
class RecordCodec:
    """Packs a homogeneous record stream into columns and back.

    Subclasses define ``name``, ``record_type``, :meth:`pack` (records →
    column dict) and :meth:`unpack` (columns + row index → record).
    ``pack(unpack) == identity`` on the stream is the contract the codec
    property tests enforce for every registered record type.
    """

    name: str = ""
    record_type: type = object

    def pack(self, records: Sequence[Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def unpack(self, cols: Dict[str, Any], i: int) -> Any:
        raise NotImplementedError


_CODECS: Dict[str, RecordCodec] = {}
_CODECS_BY_TYPE: Dict[type, RecordCodec] = {}


def register_codec(codec: RecordCodec) -> RecordCodec:
    """Register ``codec`` under ``codec.name`` (and its record type)."""
    if not codec.name:
        raise ValueError("a RecordCodec must define a non-empty name")
    existing = _CODECS.get(codec.name)
    if existing is not None and type(existing) is not type(codec):
        raise ValueError(f"codec {codec.name!r} is already registered")
    _CODECS[codec.name] = codec
    if codec.record_type is not object:
        _CODECS_BY_TYPE[codec.record_type] = codec
    return codec


def codec_for(name: str) -> RecordCodec:
    try:
        return _CODECS[name]
    except KeyError:
        raise KeyError(
            f"unknown record codec {name!r}; registered: {sorted(_CODECS)}"
        ) from None


def codec_for_type(record_type: type) -> RecordCodec:
    try:
        return _CODECS_BY_TYPE[record_type]
    except KeyError:
        raise KeyError(
            f"no codec registered for record type {record_type.__name__}"
        ) from None


def registered_codecs() -> Tuple[str, ...]:
    return tuple(sorted(_CODECS))


class RecordBatch(Sequence):
    """A packed record stream: named columns plus the codec that views it.

    Behaves as a read-only sequence of records — ``len``, indexing, and
    iteration lazily unpack the per-record dataclass view, so consumers
    written against record lists keep working — while the hot paths read
    the columns directly (``col``, ``take``, ``concat``) and transport
    pickles whole arrays.

    Internal helper columns (sort keys, routing tags) use ``__``-prefixed
    names; :meth:`drop` removes them before a batch goes public.
    """

    __slots__ = ("codec_name", "cols", "_len")

    def __init__(self, codec_name: str, cols: Dict[str, Any], length: "int | None" = None) -> None:
        self.codec_name = codec_name
        self.cols = cols
        if length is None:
            length = _col_len(next(iter(cols.values()))) if cols else 0
        self._len = int(length)

    # -- construction ------------------------------------------------------
    @classmethod
    def from_records(cls, codec_name: str, records: Sequence[Any]) -> "RecordBatch":
        codec = codec_for(codec_name)
        return cls(codec_name, codec.pack(records), len(records))

    @classmethod
    def empty_like(cls, template: "RecordBatch") -> "RecordBatch":
        return template.take(np.empty(0, dtype=_I64))

    # -- sequence-of-records view -----------------------------------------
    def __len__(self) -> int:
        return self._len

    def record(self, i: int) -> Any:
        return codec_for(self.codec_name).unpack(self.cols, i)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self.record(j) for j in range(*i.indices(self._len))]
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(i)
        return self.record(i)

    def __iter__(self) -> Iterator[Any]:
        codec = codec_for(self.codec_name)
        cols = self.cols
        for i in range(self._len):
            yield codec.unpack(cols, i)

    def to_records(self) -> List[Any]:
        return list(self)

    # -- columnar view -----------------------------------------------------
    def col(self, name: str) -> Any:
        return self.cols[name]

    def with_col(self, name: str, col: Any) -> "RecordBatch":
        cols = dict(self.cols)
        cols[name] = col
        return RecordBatch(self.codec_name, cols, self._len)

    def drop(self, *names: str) -> "RecordBatch":
        cols = {k: v for k, v in self.cols.items() if k not in names}
        return RecordBatch(self.codec_name, cols, self._len)

    def take(self, idx: np.ndarray) -> "RecordBatch":
        idx = np.asarray(idx, dtype=_I64)
        return RecordBatch(
            self.codec_name,
            {k: _col_take(v, idx) for k, v in self.cols.items()},
            len(idx),
        )

    def islice(self, start: int, stop: int) -> "RecordBatch":
        cols: Dict[str, Any] = {}
        for k, v in self.cols.items():
            if isinstance(v, Ragged):
                base = int(v.offsets[start])
                cols[k] = Ragged(
                    v.flat[base : int(v.offsets[stop])],
                    v.offsets[start : stop + 1] - base,
                )
            else:
                cols[k] = v[start:stop]
        return RecordBatch(self.codec_name, cols, stop - start)

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
        return cls(first.codec_name, cols, sum(len(b) for b in batches))

    @property
    def nbytes(self) -> int:
        """Bytes of column storage (object payloads estimated by sampling)."""
        return sum(_col_nbytes(c) for c in self.cols.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RecordBatch({self.codec_name!r}, n={self._len}, "
            f"cols={list(self.cols)})"
        )


# ---------------------------------------------------------------------------
# sort-key encoding
# ---------------------------------------------------------------------------
def encode_keys(columns: Sequence[np.ndarray], length: int) -> np.ndarray:
    """Encode int64 key columns as fixed-width big-endian byte rows.

    The bytes compare lexicographically exactly as the row-wise integer
    tuples do (each value is biased by ``2**63`` so negative keys order
    correctly), which lets one ``np.argsort`` / ``np.searchsorted`` over
    the encoded column replace Python tuple comparisons — the columnar
    sample sort's core trick.  With no key columns every row encodes
    identically (a single zero byte), preserving input order under a
    stable sort.
    """
    cols = [np.ascontiguousarray(c, dtype=_I64) for c in columns]
    if not cols:
        return np.zeros(length, dtype="S1")
    mat = np.empty((length, len(cols)), dtype=np.uint64)
    for j, c in enumerate(cols):
        mat[:, j] = c.astype(np.uint64) + np.uint64(1 << 63)
    be = np.ascontiguousarray(mat.astype(">u8"))
    return be.view(f"S{8 * len(cols)}").reshape(length)


# ---------------------------------------------------------------------------
# bytes estimation for record-list rounds
# ---------------------------------------------------------------------------
_SCALAR_NBYTES = {int: 28, float: 24, bool: 28, type(None): 16}


def estimate_nbytes(obj: Any, _depth: int = 0) -> int:
    """Cheap structural size estimate of one record (bytes).

    Exact for numpy arrays; shallow-recursive (two levels) for tuples,
    lists, and slotted/dataclass records; ``sys.getsizeof`` otherwise.
    Used to attribute routed bytes to record-list rounds (summaries,
    root infos, replicated stores) — batch rounds report exact column
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
#: pure function of ``(seed, stream length)`` — never of wall clock,
#: hashing salt, or iteration state — so the ``comm_bytes`` of
#: record-list rounds are reproducible run to run (and across backends,
#: which route the same streams in the same order).
ESTIMATE_SAMPLE_SEED = 0xC61A


def estimate_object_bytes(
    items: Sequence[Any], k: int = 8, seed: int = ESTIMATE_SAMPLE_SEED
) -> int:
    """Estimated payload bytes of an object stream, by seeded sampling.

    Reads ``k`` positions one stride (``n / k``) apart, starting at
    ``(seed ^ n) % n`` — plain arithmetic, no generator object, since
    this runs once per routed stream on the hot path — estimates each
    with :func:`estimate_nbytes`, and extrapolates the mean: O(1) per
    stream, deterministic run to run, and less biased than head-only
    sampling when a stream's early records are unrepresentative.
    Exact (full sum) when the stream has at most ``k`` items.
    """
    n = len(items)
    if n == 0:
        return 0
    if n <= k:
        return sum(estimate_nbytes(items[i]) for i in range(n))
    start = (seed ^ n) % n
    sampled = sum(estimate_nbytes(items[(start + i * n // k) % n]) for i in range(k))
    return int(sampled * n / k)


def estimate_box_nbytes(box: Sequence[Any]) -> int:
    """Estimated bytes of one outbox record list, by seeded sampling.

    Record streams within a round are homogeneous, so a few sampled
    records extrapolate well at O(1) cost per box — byte accounting
    must not slow the round it accounts for.
    """
    return estimate_object_bytes(box, k=4)
