"""Brute-force oracle: the expected answer of every query, by numpy masks.

Queries are processed in chunks so the scratch mask stays under
``SCRATCH_BYTES``.  Boxes are closed, ids come back sorted, and the
aggregate is the sum of coordinate ``sum_dim`` (exact: inputs are dyadic).
"""

from __future__ import annotations

from typing import Any, List, Sequence

import numpy as np

SCRATCH_BYTES = 16 << 20


def answers(
    ids: np.ndarray,
    coords: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    modes: Sequence[str],
    sum_dim: int = 0,
) -> List[Any]:
    """Expected answers for boxes ``[lo[i], hi[i]]`` in modes ``c``/``r``/``a``."""
    n, d = coords.shape
    m = len(lo)
    # two (chunk, n) bool temporaries live at once
    chunk = max(1, SCRATCH_BYTES // (2 * max(n, 1)))
    sums = coords[:, sum_dim]
    out: List[Any] = []
    for at in range(0, m, chunk):
        sl = slice(at, min(m, at + chunk))
        mask = np.ones((sl.stop - sl.start, n), dtype=bool)
        for k in range(d):
            col = coords[:, k][None, :]
            mask &= col >= lo[sl, k][:, None]
            mask &= col <= hi[sl, k][:, None]
        for row, mode in zip(mask, modes[sl]):
            hit = np.flatnonzero(row)
            if mode == "c":
                out.append(len(hit))
            elif mode == "r":
                out.append(np.sort(ids[hit]).tolist())
            else:
                out.append(float(sums[hit].sum()))
    return out
