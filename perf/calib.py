"""Calibrated time: durations expressed against a frozen reference kernel.

Raw wall time on the benchmark box drifts by tens of percent between and
inside runs (host speed, not scheduling: CPU time tracks wall time).  The
benchmark therefore interleaves a fixed kernel, :func:`unit`, with the timed
work and reports every duration as "milliseconds as if the host ran the
kernel in exactly ``UNIT_NOMINAL_MS``".

FROZEN: the kernel body and ``UNIT_NOMINAL_MS`` define the unit every
end-to-end metric is expressed in.  Changing either resets the trajectory.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List

import numpy as np

UNIT_NOMINAL_MS = 25.0

#: Timed work is cut into slices of at most this much raw time (at least one
#: call per slice); one ``unit()`` runs between slices.
SLICE_MS = 250.0

_SMALL = np.arange(64, dtype=np.int64)
_BIG = (np.arange(1 << 17, dtype=np.int64) * 2654435761) % (1 << 20)


def unit() -> float:
    """Run the reference kernel once; return its raw duration in ms.

    About half interpreter work (a dict loop, many small-array numpy calls)
    and half large-array numpy masks and sorts — the program's own mix.
    """
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(26000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
    acc = 0
    for i in range(2300):
        row = _SMALL + i
        acc += int(row[row > 40].sum())
    for lo in range(0, 1 << 20, 1 << 16):
        mask = (_BIG >= lo) & (_BIG < lo + (1 << 18))
        hits = np.nonzero(mask)[0]
        acc += int(_BIG[hits].sum())
    acc += int(np.sort(_BIG)[1 << 16])
    np.cumsum(_BIG).searchsorted(acc)
    return (time.perf_counter() - t0) * 1000.0


def scale(before: float, after: float) -> float:
    """The factor that calibrates a duration bracketed by two unit samples (ms)."""
    return UNIT_NOMINAL_MS / ((before + after) / 2.0)


def pin_to_one_cpu() -> None:
    """Keep this process, and the children it spawns, on its last usable CPU.

    The box's virtual CPUs change speed independently of each other, so a
    migration between them is a step in host speed that no neighbouring
    ``unit()`` sees; pinned, the kernel runs where the timed work runs.  Where
    the OS cannot say or will not pin, the run goes on unpinned.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class Clock:
    """Times calls in slices bracketed by ``unit()`` runs.

    ``time(key, fn)`` runs ``fn`` inside the current slice; when the slice
    closes, every duration in it is scaled by ``UNIT_NOMINAL_MS / mean(unit
    before, unit after)`` and appended to ``cal_ms[key]`` (the unscaled value
    goes to ``raw_ms[key]``).  All unit samples are kept in ``units``.
    """

    def __init__(self) -> None:
        self.units: List[float] = []
        self.cal_ms: Dict[str, List[float]] = {}
        self.raw_ms: Dict[str, List[float]] = {}
        self._pending: List[tuple] = []
        self._elapsed_ms = 0.0
        self.unit()  # warm the kernel's own caches
        self.units.clear()
        self._before = self.unit()

    def unit(self) -> float:
        u = unit()
        self.units.append(u)
        return u

    def time(self, key: str, fn: Callable[[], Any]) -> Any:
        last = self._pending[-1][1] if self._pending else 0.0
        if self._pending and self._elapsed_ms + last > SLICE_MS:
            self.close_slice()
        t0 = time.perf_counter()
        result = fn()
        ms = (time.perf_counter() - t0) * 1000.0
        self._pending.append((key, ms))
        self._elapsed_ms += ms
        return result

    def close_slice(self) -> None:
        """End the current slice now (also brackets a one-call slice)."""
        if not self._pending:
            return
        after = self.unit()
        factor = scale(self._before, after)
        for key, ms in self._pending:
            self.raw_ms.setdefault(key, []).append(ms)
            self.cal_ms.setdefault(key, []).append(ms * factor)
        self._pending = []
        self._elapsed_ms = 0.0
        self._before = after


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc status")
