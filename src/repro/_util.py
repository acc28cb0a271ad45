"""Small internal utilities shared across subpackages."""

from __future__ import annotations

from typing import Iterator, Sequence, TypeVar

import numpy as np

from .errors import PowerOfTwoError

T = TypeVar("T")

__all__ = [
    "is_power_of_two",
    "next_power_of_two",
    "ilog2",
    "require_power_of_two",
    "chunks",
    "percentiles",
    "slice_positions",
    "stable_argsort",
]


def is_power_of_two(x: int) -> bool:
    """Return True iff ``x`` is a positive power of two."""
    return x > 0 and (x & (x - 1)) == 0


def next_power_of_two(x: int) -> int:
    """Smallest power of two ``>= x`` (and ``>= 1``)."""
    if x <= 1:
        return 1
    return 1 << (x - 1).bit_length()


def ilog2(x: int) -> int:
    """Exact integer log2 of a power of two."""
    require_power_of_two("ilog2 argument", x)
    return x.bit_length() - 1


def require_power_of_two(what: str, x: int) -> int:
    """Validate that ``x`` is a power of two, returning it unchanged."""
    if not is_power_of_two(x):
        raise PowerOfTwoError(what, x)
    return x


def chunks(seq: Sequence[T], size: int) -> Iterator[Sequence[T]]:
    """Yield successive slices of ``seq`` of length ``size`` (last may be short)."""
    if size <= 0:
        raise ValueError(f"chunk size must be positive, got {size}")
    for i in range(0, len(seq), size):
        yield seq[i : i + size]


def percentiles(
    values: Sequence[float], pcts: Sequence[float] = (50, 95, 99)
) -> dict[str, "float | None"]:
    """Linear-interpolated percentiles, keyed ``"p50"``, ``"p95"``, ...

    The one shared implementation behind every latency/percentile figure
    the repo reports (serve metrics, loadgen rows) — so "p99" means the
    same estimator everywhere.  Uses the inclusive linear interpolation
    between closest ranks (numpy's default method), computed on a sorted
    copy.  Empty input maps every key to ``None`` rather than inventing
    a number.
    """
    keys = [f"p{pct:g}" for pct in pcts]
    if not values:
        return {k: None for k in keys}
    ordered = sorted(float(v) for v in values)
    last = len(ordered) - 1
    out: dict[str, "float | None"] = {}
    for key, pct in zip(keys, pcts):
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        rank = (pct / 100.0) * last
        lo = int(rank)
        hi = min(lo + 1, last)
        frac = rank - lo
        # a + (b - a) * frac: exact when the bracketing ranks tie, and
        # never overshoots b (the two-product form can, by an ulp)
        out[key] = ordered[lo] + (ordered[hi] - ordered[lo]) * frac
    return out


def slice_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices of the slices ``[starts[k], starts[k] + lengths[k])``, end
    to end: ``flat[slice_positions(starts, lengths)]`` gathers ragged
    rows of a flat array with one ``repeat`` and one fancy index."""
    first = np.cumsum(lengths) - lengths
    total = int(lengths.sum())
    return np.repeat(starts - first, lengths) + np.arange(total, dtype=np.int64)


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Exactly ``np.argsort(keys, kind="stable")`` (ties in index
    order), at quicksort cost.

    A quicksort order is already the stable one when no two keys tie, so
    it is returned as is once the sorted keys are checked strictly
    distinct; otherwise the pairs ``(dense rank, index)``, packed
    distinct into one int64 ``rank · n + index``, are quicksorted.
    numpy's stable sort of a wide key is a timsort, several times slower
    than a quicksort on unsorted input; on a few sorted runs the timsort
    merges instead and is as fast, so a merge of runs keeps it.  ``keys``
    is 1-d and holds no NaN.
    """
    keys = np.asarray(keys)
    order = np.argsort(keys)
    ranked = keys[order]
    step = ranked[1:] != ranked[:-1]
    if step.all():
        return order
    n = len(keys)
    dense = np.empty(n, dtype=np.int64)
    dense[order] = np.concatenate(([0], np.cumsum(step)))
    return np.sort(dense * n + np.arange(n, dtype=np.int64)) % n
