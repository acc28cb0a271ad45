"""Experiment SP1: end-to-end modeled speedup under the BSP cost model.

The repro band for this paper warns that wall-clock fidelity to 1996
hardware is limited; what the CGM model *does* let us predict is the BSP
time ``T(p) = Σ_steps (w_max + g·h + L)`` for any machine parameters
``(g, L)``.  SP1 sweeps p for a build + batched-search pipeline under three
machine personalities (fast network, commodity cluster, high-latency WAN)
and reports the modeled speedup ``T(1)/T(p)`` — reproducing the *shape*
the paper's optimality argument implies: near-linear speedup while
``s/p`` dominates, flattening once the ``g·h + L`` communication term
takes over (sooner on worse networks).
"""

from __future__ import annotations

from ..cgm import CostModel, Machine
from ..dist import DistributedRangeTree
from ..workloads import selectivity_queries, uniform_points
from .tables import Table

__all__ = ["run_sp1"]

MACHINES = [
    ("fast interconnect", CostModel(g=0.2, L=50.0)),
    ("commodity cluster", CostModel(g=2.0, L=2_000.0)),
    ("high-latency WAN", CostModel(g=10.0, L=200_000.0)),
]


def run_sp1(n: int = 2048, d: int = 2) -> Table:
    """Modeled speedup of build+search as p grows, per machine personality."""
    t = Table(
        f"SP1 — modeled BSP speedup, build + m=n search (n={n}, d={d})",
        ["p", "work term", "rounds"]
        + [f"speedup ({name})" for name, _c in MACHINES],
    )
    from ..query import count

    pts = uniform_points(n, d, seed=40)
    qs = selectivity_queries(n, d, seed=41, selectivity=0.01)
    base: dict[str, float] = {}
    for p in (1, 2, 4, 8, 16):
        with Machine(p) as mach, mach.scope() as metrics:
            tree = DistributedRangeTree.build(pts, machine=mach)
            tree.run([count(q) for q in qs])
        row = [p, metrics.max_work, metrics.rounds]
        for name, cost in MACHINES:
            model = metrics.modeled_time(cost)
            if p == 1:
                base[name] = model
            row.append(round(base[name] / model, 2))
        t.add_row(*row)
    t.add_note("speedup = modeled T(1)/T(p); flattens once g·h + L·rounds dominates w_max")
    t.add_note("worse networks flatten earlier — the CGM optimality is 'per-round h = s/p', not free communication")
    return t
