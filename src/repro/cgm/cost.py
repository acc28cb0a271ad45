"""BSP/CGM cost model (§1-§2, the optimality criterion).

The paper's optimality criterion: running time = sequential time divided by
``p`` plus a *constant number* of communication rounds, each an
``h``-relation with ``h = s/p``.  The simulator therefore accounts for two
quantities per superstep:

* local computation — abstract operation counts charged by the algorithms
  (plus wall-clock, recorded separately in the metrics), and
* communication — the ``h`` of the round, i.e. the maximum number of
  records any processor sends or receives.

:class:`CostModel` turns a metrics trace into the classic BSP time
``T = Σ_steps ( w_max + g·h + L )``, which the scaling benches use to make
predictions independent of Python constant factors.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """BSP parameters.

    Attributes
    ----------
    g:
        Per-record communication gap (cost of one record of an h-relation).
    L:
        Superstep latency / barrier cost.
    """

    g: float = 1.0
    L: float = 100.0

    def describe(self) -> str:
        return f"BSP(g={self.g}, L={self.L})"
