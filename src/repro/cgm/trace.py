"""Human-readable rendering of a machine's superstep trace.

``render_trace(tree.metrics, CostModel())`` produces the execution
timeline the paper's analysis reasons about (§1's alternation of
supersteps): alternating local-computation phases and h-relation rounds,
with per-step work/volume columns, and the trace's BSP time read under
the given cost model.  Used by the CLI's ``query --trace`` flag and handy
when debugging new distributed algorithms.
"""

from __future__ import annotations

from .cost import CostModel
from .metrics import Metrics

__all__ = ["render_trace"]


def render_trace(metrics: Metrics, cost: CostModel) -> str:
    """Render every superstep as one line; totals and the modeled BSP
    time under ``cost`` at the bottom."""
    lines = [
        f"{'#':>3} {'kind':7} {'label':34} {'max ops':>9} {'h':>7} {'volume':>8} {'max ms':>8}"
    ]
    lines.append("-" * len(lines[0]))
    for i, step in enumerate(metrics.steps):
        if step.kind == "compute":
            lines.append(
                f"{i:>3} {'compute':7} {step.label[:34]:34} {step.max_ops:>9} "
                f"{'':>7} {'':>8} {step.max_seconds * 1e3:>8.2f}"
            )
        else:
            lines.append(
                f"{i:>3} {'comm':7} {step.label[:34]:34} {'':>9} "
                f"{step.h:>7} {step.volume:>8} {'':>8}"
            )
    lines.append("-" * len(lines[0]))
    lines.append(
        f"totals: {metrics.rounds} rounds, max h {metrics.max_h}, "
        f"volume {metrics.total_volume}, max work {metrics.max_work}, "
        f"critical path {metrics.critical_seconds * 1e3:.2f} ms"
    )
    lines.append(
        f"modeled BSP time [{cost.describe()}]: {metrics.modeled_time(cost):.1f}"
    )
    return "\n".join(lines)
