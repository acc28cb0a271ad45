"""The semigroup kernel engine: dtype-aware columnar value folds.

The associative-function machinery spends its local work in semigroup
folds — node annotation during Algorithm Construct and per-query piece
aggregation during Search.  Carried as a numpy ``object`` column and
combined one Python ``combine(a, b)`` call at a time, those folds are
the dominant interpreter cost left on the hot path.  This module maps
the *builtin* semigroups onto **kernels**: fixed-width typed numpy
columns (int64 for count, float64 for sums/extremes/boxes, side-by-side
component blocks for :class:`~repro.semigroup.builtin.ProductSemigroup`) whose
folds run as segmented numpy reductions over a whole record stream in a
handful of array calls.

Bit-identity contract
---------------------
A kernel must reproduce the semigroup's own ``combine`` answers *bit for
bit* (the sequential oracle and brute force fold Python values), so the
reduction order is chosen per column kind (``col_ops``):

* ``"iadd"`` — integer-exact addition (count slots): any association is
  exact, so ``np.add.reduceat`` (pairwise) is safe.
* ``"fadd"`` — float addition (sum slots): numpy's pairwise summation
  does **not** match a sequential left fold of Python floats, so
  segmented folds run a position-by-position left fold instead —
  ``O(max segment length)`` slice adds over the segments longest first,
  each combining one element into every open segment's accumulator.  The
  contract is per call: the query demux folds a query's pieces rank by
  rank and then the partial sums at the query's home rank, so a float
  sum is associated per-rank-then-home — the same on every backend,
  within the usual reassociation bound of a single left fold.
* ``"min"`` — min/max/bbox slots: max slots are stored *negated* so
  every extreme is an ``np.minimum`` (decode flips the sign back, which
  is exact in IEEE-754); min folds are associative-exact, so
  ``np.minimum.reduceat`` is safe.

Heap folds (node annotation) combine children pairwise by structure, as
the per-node ``combine`` loop does, so the vectorized level-by-level fold
is bit-identical by construction for every column kind.  Their one
consumer is :meth:`repro.seq.compiled.CompiledForest.annotate`: a
stack's last-dimension trees tile ``row_block`` in aligned width-``m``
blocks, each tree a subtree of its block's heap, so one
:func:`batched_heap_fold` over those blocks annotates the whole stack's
internal nodes (a leaf is its row's own value, held once in the
column's tail, not again in a heap), per annotation layer (every
annotation is a product: ``kernel.layers`` are its components, each
under its own kernel), and the layers join
(:meth:`KernelColumn.from_layers`) into the stack's ``aggs`` column —
the aggregates live there, not in a per-tree store.  A layer the column
already holds is taken back out (:meth:`KernelColumn.layer`), so a
refit folds only the layers it adds.  The product of no layers
(:data:`~repro.semigroup.NO_LAYERS`, what a COUNT tree annotates with:
a count is a node's width) is a zero-width column — every shape still
holds, and it holds and ships 0 bytes.

Resolution
----------
Every semigroup has exactly one kernel, in its ``kernel`` field.  The
builtin constructors name a typed one (:mod:`repro.semigroup.builtin`
imports this module, not the reverse); a product gets a
:class:`ProductKernel` over its components' kernels; any other
semigroup — unions, top-k merges, moments, user lambdas, a hand-built
one that passes none — gets an :class:`ObjectKernel` from
:class:`~repro.semigroup.base.Semigroup` itself: a width-1 ``object``
column of the semigroup's own values, lifted by its ``lift`` and folded
through its ``combine``.  A kernel is total: it encodes, decodes,
lifts, folds and sizes its columns, so a value's layout is decided, and
``⊕`` evaluated, in this module alone.
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence, Tuple

import numpy as np

from ..errors import DimensionMismatch

__all__ = [
    "SemigroupKernel",
    "ScalarKernel",
    "BBoxKernel",
    "ProductKernel",
    "ObjectKernel",
    "KernelColumn",
    "batched_heap_fold",
    "fold_segments",
    "lift_kernel_column",
]

_I64 = np.int64
_F64 = np.float64

#: Column fold kinds (see module docstring for the bit-identity rules).
OP_IADD = "iadd"
OP_FADD = "fadd"
OP_MIN = "min"


# ---------------------------------------------------------------------------
# the kernel interface and the builtin kernels
# ---------------------------------------------------------------------------
class SemigroupKernel:
    """A dtype-aware columnar representation of one semigroup's values.

    Values live as ``(n, width)`` matrices of ``dtype``; ``col_ops``
    names the fold kind of every column; ``identity_row`` is the encoded
    identity (max/bbox-max slots already negated).  ``encode`` maps a
    list of semigroup values to a matrix, ``decode_row`` inverts one
    row back to the exact semigroup value (type included) — the
    round trip is bit-identical, property-tested per kernel.

    ``lift`` is the semigroup's ``f`` over a whole ``(n, d)`` float64
    coordinate matrix: ``n`` encoded rows in a few array ops instead of
    one Python ``lift`` call per point (``ids``, the points' ids, only an
    :class:`ObjectKernel` reads).  Exact because the builtin lifts read
    ``float64`` coordinates unchanged; coordinates the kernel cannot
    read raise :class:`~repro.errors.DimensionMismatch`.

    The folds behind :func:`fold_segments` and :func:`batched_heap_fold`
    are methods, so an :class:`ObjectKernel` brings its own; the ones
    here serve every typed kernel through ``col_ops``.
    """

    name: str = ""
    width: int = 1
    dtype: Any = _F64
    col_ops: Tuple[str, ...] = ()
    identity_row: Tuple[float, ...] = ()

    def encode(self, values: Sequence[Any]) -> np.ndarray:
        raise NotImplementedError

    def decode_row(self, row: Sequence[Any]) -> Any:
        raise NotImplementedError

    def lift(self, coords: np.ndarray, ids: Any = None) -> np.ndarray:
        raise NotImplementedError

    def decode(self, mat: np.ndarray, i: int) -> Any:
        return self.decode_row(mat[i])

    def decode_list(self, mat: np.ndarray) -> List[Any]:
        return [self.decode_row(row) for row in mat.tolist()]

    def identity_mat(self, k: int) -> np.ndarray:
        out = np.empty((k, self.width), dtype=self.dtype)
        out[:] = np.asarray(self.identity_row, dtype=self.dtype)
        return out

    def nbytes(self, mat: np.ndarray) -> int:
        """Bytes a column's matrix ships as: exact for typed storage,
        counted in this kernel's dtype whatever ``mat``'s is."""
        return len(mat) * self.width * np.dtype(self.dtype).itemsize

    def fold(self, mat: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """:func:`fold_segments` for a typed kernel: ``reduceat`` over
        interleaved ``(start, end)`` boundaries for the associativity-exact
        columns, a sequential left fold for float-add columns."""
        k = len(starts)
        out = np.empty((k, self.width), dtype=mat.dtype)
        out[:] = np.asarray(self.identity_row, dtype=mat.dtype)
        ne = ends > starts
        if not bool(ne.any()):
            return out
        s = starts[ne]
        e = ends[ne]
        ne_idx = np.nonzero(ne)[0]
        n = len(mat)

        # reduceat boundaries: [s0, e0, s1, e1, ...] with results at [::2];
        # a trailing end == n is dropped (reduceat then folds a[s_last:]).
        pairs = np.empty(2 * len(s), dtype=_I64)
        pairs[0::2] = s
        pairs[1::2] = e
        if pairs[-1] == n:
            pairs = pairs[:-1]

        fadd_cols: List[int] = []
        for op, cols in _col_groups(self.col_ops):
            if op == OP_FADD:
                fadd_cols.extend(cols)
                continue
            ufunc = np.minimum if op == OP_MIN else np.add
            red = ufunc.reduceat(mat[:, cols], pairs, axis=0)[::2]
            out[np.ix_(ne_idx, cols)] = red

        if fadd_cols:
            # longest first: the m_i segments open at step i are a prefix
            sub = mat[:, fadd_cols]
            order = np.argsort(s - e, kind="stable")
            so, lengths = s[order], (e - s)[order]
            acc = sub[so].copy()
            steps = np.arange(1, int(lengths[0]))
            for i, m_i in zip(steps.tolist(), np.searchsorted(-lengths, -steps).tolist()):
                acc[:m_i] += sub[so[:m_i] + i]
            out[np.ix_(ne_idx[order], fadd_cols)] = acc
        return out

    def fold_heaps(self, leaves: np.ndarray, out: np.ndarray) -> np.ndarray:
        """:func:`batched_heap_fold` for a typed kernel: one level loop,
        one array op per run of like columns per level, the first level
        from the leaves and each one above from views of the level below,
        written into ``out`` in place."""
        m = leaves.shape[1]
        out[:, 0] = np.asarray(self.identity_row, dtype=self.dtype)
        runs = _heap_runs(self.col_ops)
        below, pos = leaves, m
        while pos > 1:
            lo = pos >> 1
            for ufunc, cols in runs:
                ufunc(below[:, 0::2, cols], below[:, 1::2, cols], out=out[:, lo:pos, cols])
            below, pos = out[:, lo:pos], lo
        return out

    # equality by name: kernels are parameterized only by what the name
    # encodes (scalar kind and coordinate, bbox dimension, product
    # layout), so a kernel that crossed a pickle equals its original.
    def __eq__(self, other: object) -> bool:
        return isinstance(other, SemigroupKernel) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, width={self.width})"


class ScalarKernel(SemigroupKernel):
    """One column: a count, or the sum/min/max of coordinate ``dim``.

    ``count`` is int64 ones under exact addition; the coordinate kinds
    are float64 — ``sum`` folded in sequential order, ``max`` stored
    *negated* so it folds, like ``min``, under ``np.minimum``.
    """

    #: kind -> (dtype, fold op, encoded identity, stored negated)
    _KINDS = {
        "count": (_I64, OP_IADD, 0, False),
        "sum": (_F64, OP_FADD, 0.0, False),
        "min": (_F64, OP_MIN, math.inf, False),
        "max": (_F64, OP_MIN, math.inf, True),  # encoded: -(-inf)
    }

    def __init__(self, kind: str, dim: int = 0) -> None:
        self.kind = kind
        self.dim = dim
        self.dtype, op, identity, self._neg = self._KINDS[kind]
        self.name = kind if kind == "count" else f"{kind}[x{dim}]"
        self.col_ops = (op,)
        self.identity_row = (identity,)
        self._py = int if kind == "count" else float

    def encode(self, values):
        mat = np.asarray(values, dtype=self.dtype).reshape(len(values), 1)
        return -mat if self._neg else mat

    def decode_row(self, row):
        return self._py(-row[0] if self._neg else row[0])

    def decode_list(self, mat):
        # tolist() yields the Python int/float decode_row would, row by row
        col = mat[:, 0].astype(self.dtype, copy=False)
        return (-col if self._neg else col).tolist()

    def lift(self, coords, ids=None):
        n, d = coords.shape
        if self.kind == "count":
            return np.ones((n, 1), dtype=_I64)
        if not 0 <= self.dim < d:
            raise DimensionMismatch(d, self.dim, f"{self.name} coordinate index")
        col = np.ascontiguousarray(coords[:, self.dim], dtype=_F64).reshape(n, 1)
        return -col if self._neg else col


class BBoxKernel(SemigroupKernel):
    """Bounding boxes: ``(mins, maxs)`` tuples as ``2d`` float64 columns.

    The max half is stored negated (the sign trick), so the whole row
    folds under one ``np.minimum`` and the empty box — all ``+inf`` —
    is the natural identity.
    """

    dtype = _F64

    def __init__(self, d: int) -> None:
        self.d = d
        self.name = f"bbox{d}"
        self.width = 2 * d
        self.col_ops = (OP_MIN,) * (2 * d)
        self.identity_row = (math.inf,) * (2 * d)

    def encode(self, values):
        d = self.d
        out = np.empty((len(values), 2 * d), dtype=_F64)
        if len(values):
            out[:, :d] = np.asarray([v[0] for v in values], dtype=_F64)
            out[:, d:] = -np.asarray([v[1] for v in values], dtype=_F64)
        return out

    def decode_row(self, row):
        d = self.d
        return (
            tuple(float(x) for x in row[:d]),
            tuple(float(-x) for x in row[d:]),
        )

    def lift(self, coords, ids=None):
        if coords.shape[1] != self.d:
            raise DimensionMismatch(self.d, coords.shape[1], f"{self.name} points")
        c = np.asarray(coords, dtype=_F64)
        return np.hstack([c, -c])


class ProductKernel(SemigroupKernel):
    """Componentwise product: one matrix of component blocks, side by side.

    Block ``i`` holds component ``i``'s encoding under its own kernel,
    ``components[i]``, which :meth:`component` and :attr:`layers` return
    as it is — so the query engine folds one component's block without
    touching the rest, and an annotation folds, and is known by name,
    layer by layer.  The matrix is int64/float64 when every component is
    typed and ``object`` otherwise (a typed block then holds its numbers
    as Python scalars); every fold, identity and size runs block by
    block in the component's own dtype.
    """

    def __init__(self, components: Sequence[SemigroupKernel]) -> None:
        self.components = tuple(components)
        self.name = "product(" + ",".join(c.name for c in self.components) + ")"
        self.width = sum(c.width for c in self.components)
        dtypes = {np.dtype(c.dtype).char for c in self.components}
        self.dtype = object if "O" in dtypes else _F64 if "d" in dtypes else _I64
        self.col_ops = tuple(op for c in self.components for op in c.col_ops)
        self.identity_row = tuple(x for c in self.components for x in c.identity_row)
        ends = np.cumsum([0] + [c.width for c in self.components]).tolist()
        self._blocks = tuple(
            (c, slice(lo, hi)) for c, lo, hi in zip(self.components, ends, ends[1:])
        )

    def _each(self, mat: np.ndarray):
        """``(component, block)`` per component: its columns of ``mat``
        in the component's own dtype."""
        return ((c, np.asarray(mat[..., cols], dtype=c.dtype)) for c, cols in self._blocks)

    def component(self, i: int) -> SemigroupKernel:
        """The kernel of annotation layer ``i``."""
        return self.components[i]

    def component_rows(self, mat, idx, slot):
        """Layer ``slot``'s encoded rows of ``mat`` at ``idx``."""
        return mat.take(idx, axis=0)[:, self._blocks[slot][1]]

    @property
    def layers(self):
        """The annotation layers a column under this kernel holds."""
        return self.components

    def layer_data(self, mat, slot):
        """Layer ``slot``'s column out of ``mat`` (see :meth:`KernelColumn.layer`)."""
        return mat[:, self._blocks[slot][1]]

    def join_layers(self, mats, rows):
        """The ``rows``-row matrix from one matrix per layer (see
        :meth:`KernelColumn.from_layers`)."""
        if len(mats) == 1:  # a one-layer product is its layer, held alone
            return np.ascontiguousarray(mats[0])
        out = np.empty((rows, self.width), dtype=self.dtype)
        for (_c, cols), m in zip(self._blocks, mats):
            out[:, cols] = m
        return out

    def encode(self, values):
        out = np.empty((len(values), self.width), dtype=self.dtype)
        for i, (c, cols) in enumerate(self._blocks):
            out[:, cols] = c.encode([v[i] for v in values])
        return out

    def decode_row(self, row):
        return tuple(c.decode_row(row[cols]) for c, cols in self._blocks)

    def lift(self, coords, ids=None):
        out = np.empty((len(coords), self.width), dtype=self.dtype)
        for c, cols in self._blocks:
            out[:, cols] = c.lift(coords, ids)
        return out

    def identity_mat(self, k):
        out = np.empty((k, self.width), dtype=self.dtype)
        for c, cols in self._blocks:
            out[:, cols] = c.identity_mat(k)
        return out

    def nbytes(self, mat):
        return sum(c.nbytes(mat[:, cols]) for c, cols in self._blocks)

    def fold(self, mat, starts, ends):
        out = np.empty((len(starts), self.width), dtype=mat.dtype)
        for (c, block), (_c, cols) in zip(self._each(mat[:, : self.width]), self._blocks):
            out[:, cols] = c.fold(block, starts, ends)
        return out

    def fold_heaps(self, leaves, out):
        for (c, block), (_c, cols) in zip(self._each(leaves), self._blocks):
            out[..., cols] = c.fold_heaps(block, np.empty(block.shape, dtype=c.dtype))
        return out


class ObjectKernel(SemigroupKernel):
    """A semigroup's own Python values: one per row of a width-1
    ``object`` column, lifted by its ``lift`` and folded through its
    ``combine``.

    The kernel of every semigroup whose constructor names no typed one
    (top-k, id sets, moments, user semigroups), resolved by
    :class:`~repro.semigroup.base.Semigroup` itself.  A segment fold
    starts at the segment's first row and combines left to right; a heap
    fold combines children pairwise, level by level.  A column's bytes
    are a seeded sampled estimate of its objects plus its pointers.  It
    holds one semigroup's values whole: a
    :class:`~repro.semigroup.builtin.ProductSemigroup` holds a
    :class:`ProductKernel` over its components' kernels instead.
    """

    dtype = object
    width = 1

    def __init__(self, semigroup: Any) -> None:
        self.semigroup = semigroup
        self.name = f"object[{semigroup.name}]"
        self.identity_row = (semigroup.identity,)

    def encode(self, values):
        # fromiter keeps each value whole, where an array assignment would
        # unpack equal-length tuples into columns
        return np.fromiter(values, dtype=object, count=len(values)).reshape(-1, 1)

    def decode_row(self, row):
        return row[0]

    def decode_list(self, mat):
        return mat[:, 0].tolist()

    def identity_mat(self, k):
        out = np.empty((k, 1), dtype=object)
        out.fill(self.semigroup.identity)
        return out

    def lift(self, coords, ids=None):
        lift = self.semigroup.lift
        return self.encode([lift(int(pid), row) for pid, row in zip(ids, coords)])

    def nbytes(self, mat):
        from ..cgm.columns import estimate_object_bytes

        return estimate_object_bytes(mat[:, 0]) + int(mat.nbytes)

    def fold(self, mat, starts, ends):
        combine = self.semigroup.combine
        values = mat[:, 0].tolist()
        out = self.identity_mat(len(starts))
        for k, (s, e) in enumerate(zip(starts.tolist(), ends.tolist())):
            if e > s:
                acc = values[s]
                for v in values[s + 1 : e]:
                    acc = combine(acc, v)
                out[k, 0] = acc
        return out

    def fold_heaps(self, leaves, out):
        combine = np.frompyfunc(self.semigroup.combine, 2, 1)
        out[:, 0].fill(self.semigroup.identity)
        below, pos = leaves, leaves.shape[1]
        while pos > 1:
            lo = pos >> 1
            out[:, lo:pos] = combine(below[:, 0::2], below[:, 1::2])
            below, pos = out[:, lo:pos], lo
        return out


def lift_kernel_column(
    kernel: SemigroupKernel, coords: np.ndarray, n_total: int, ids: Any = None
) -> "KernelColumn":
    """Lift a whole coordinate matrix into a padded value column.

    ``ids`` are the points' ids (an :class:`ObjectKernel` lifts point by
    point through the semigroup's ``lift``, which receives them).  Rows
    past ``len(coords)`` (power-of-two padding sentinels) get the encoded
    identity, matching ``semigroup.identity`` for sentinels.
    """
    block = kernel.lift(np.asarray(coords, dtype=_F64), ids)
    n_real = len(block)
    if n_total == n_real:
        return KernelColumn(kernel, block.astype(kernel.dtype, copy=False))
    return KernelColumn(kernel, np.concatenate([block, kernel.identity_mat(n_total - n_real)]))


# ---------------------------------------------------------------------------
# vectorized folds shared by every kernel
# ---------------------------------------------------------------------------
def _col_groups(col_ops: Sequence[str]) -> List[Tuple[str, List[int]]]:
    groups: dict[str, List[int]] = {}
    for j, op in enumerate(col_ops):
        groups.setdefault(op, []).append(j)
    return list(groups.items())


def _heap_runs(col_ops: Sequence[str]) -> List[Tuple[Any, slice]]:
    """A heap fold's ``(ufunc, columns)`` per maximal run of adjacent
    columns that combine alike, the columns a ``slice`` so a level
    combines views.  The ufuncs are elementwise, so how the columns are
    cut into runs does not change a bit; integer and float additions
    pair children alike."""
    runs: List[Tuple[Any, slice]] = []
    start = 0
    for j in range(1, len(col_ops) + 1):
        if j == len(col_ops) or (col_ops[j] == OP_MIN) != (col_ops[start] == OP_MIN):
            runs.append((np.minimum if col_ops[start] == OP_MIN else np.add, slice(start, j)))
            start = j
    return runs


def batched_heap_fold(kernel: SemigroupKernel, leaves: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Heap-ordered internal-node aggregates of a stack of equal-size
    trees, leaves not included.

    ``leaves`` is ``(trees, m, width)``; the result, written into and
    returned as ``out``, is ``(trees, m, width)`` under ``kernel.dtype``
    with each tree's heap in its own plane: row
    ``v < m`` is ``combine(child 2v, child 2v+1)``, where a child ``c ≥
    m`` is leaf ``c − m`` (read from ``leaves``, never stored here), and
    row 0 is the identity.  Children combine pairwise — the exact
    association of the per-node bottom-up ``combine`` loop — so every
    column kind is bit-identical.  One level loop annotates the whole
    stack — the batching that makes kernel annotation win even when a
    range tree holds thousands of tiny last-dimension trees (per-tree
    numpy calls would cost more than the Python combines they replace).
    """
    return kernel.fold_heaps(leaves, out)


def fold_segments(
    kernel: SemigroupKernel,
    mat: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> np.ndarray:
    """Fold ``mat[starts[i]:ends[i]]`` row ranges; identity for empties.

    The segmented reduction at the heart of the engine, for every kernel
    (:meth:`SemigroupKernel.fold`, :meth:`ObjectKernel.fold`): each
    segment is bit-identical to a left fold of its rows (see the module
    docstring's bit-identity rules; folding a query in two calls — per
    rank, then at home — reassociates).  Only the first
    ``kernel.width`` columns of ``mat`` participate, so a kernel can
    fold its slice of a wider shared piece matrix in place.
    """
    from ..faults import maybe_inject

    maybe_inject("kernel.fold")
    starts = np.asarray(starts, dtype=_I64)
    ends = np.asarray(ends, dtype=_I64)
    return kernel.fold(mat, starts, ends)


# ---------------------------------------------------------------------------
# value columns (the batch/tree carrier)
# ---------------------------------------------------------------------------
class KernelColumn:
    """A semigroup value column: one ``(n, width)`` matrix plus its kernel.

    The one form of semigroup values in a
    :class:`~repro.cgm.columns.RecordBatch`, a hat and a forest stack:
    integer indexing decodes one semigroup value (so lazy record
    unpacking keeps working), slices/arrays produce new columns, and
    ``nbytes`` is the kernel's — exact for typed storage, a seeded
    sampled estimate for an :class:`ObjectKernel`'s objects.
    """

    __slots__ = ("kernel", "data")

    def __init__(self, kernel: SemigroupKernel, data: np.ndarray) -> None:
        self.kernel = kernel
        data = np.asarray(data, dtype=kernel.dtype)
        # numpy infers no ``-1`` for width 0: a 2-d matrix keeps its rows
        self.data = data if data.ndim == 2 else data.reshape(-1, kernel.width)

    @classmethod
    def from_values(
        cls, kernel: SemigroupKernel, values: Sequence[Any]
    ) -> "KernelColumn":
        """``values`` encoded under ``kernel`` (a column passes through)."""
        if isinstance(values, KernelColumn):
            return values
        return cls(kernel, kernel.encode(list(values)))

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, i):
        if isinstance(i, (int, np.integer)):
            return self.kernel.decode(self.data, int(i))
        if isinstance(i, slice):
            return KernelColumn(self.kernel, self.data[i])
        return self.take(np.asarray(i, dtype=_I64))

    def __iter__(self):
        for i in range(len(self.data)):
            yield self.kernel.decode(self.data, i)

    def take(self, idx: np.ndarray) -> "KernelColumn":
        return KernelColumn(self.kernel, self.data.take(np.asarray(idx, dtype=_I64), axis=0))

    def islice(self, start: int, stop: int) -> "KernelColumn":
        return KernelColumn(self.kernel, self.data[start:stop])

    def copy(self) -> "KernelColumn":
        return KernelColumn(self.kernel, self.data.copy())

    def repeat(self, k: int) -> "KernelColumn":
        return KernelColumn(self.kernel, np.repeat(self.data, k, axis=0))

    def component_rows(self, idx: np.ndarray, slot: int) -> np.ndarray:
        """Annotation layer ``slot``'s rows at ``idx``, still encoded.

        The demux gathers fold pieces from the storage without decoding
        them: one component block of the annotation's product.
        """
        return self.kernel.component_rows(self.data, np.asarray(idx, dtype=_I64), slot)

    def layer(self, slot: int) -> "KernelColumn":
        """Annotation layer ``slot`` as a column of its own, under
        ``kernel.layers[slot]``: the product's component block."""
        return KernelColumn(self.kernel.layers[slot], self.kernel.layer_data(self.data, slot))

    @classmethod
    def from_layers(
        cls, kernel: SemigroupKernel, layers: Sequence["KernelColumn"], rows: int
    ) -> "KernelColumn":
        """The ``rows``-row column under ``kernel`` whose layer ``i`` is
        ``layers[i]`` (under ``kernel.layers[i]``): the inverse of
        :meth:`layer` — one matrix in the product's layout and dtype,
        zero columns for the product of no layers."""
        return cls(kernel, kernel.join_layers([c.data for c in layers], rows))

    @classmethod
    def concat(cls, cols: Sequence["KernelColumn"]) -> "KernelColumn":
        return cls(cols[0].kernel, np.concatenate([c.data for c in cols]))

    def to_list(self) -> List[Any]:
        return self.kernel.decode_list(self.data)

    @property
    def nbytes(self) -> int:
        return self.kernel.nbytes(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KernelColumn({self.kernel.name!r}, n={len(self.data)})"
