"""Experiment harness: one driver per claim of the paper.

Each ``run_*`` function executes a self-contained experiment and returns a
:class:`~repro.bench.tables.Table` of exact counters (rounds, h, charged
work, record counts — no wall-clock, so a table renders identically run
to run); the CLI (``python -m repro experiments``) renders them, and
``tests/test_bench_drivers.py`` asserts the claim each table reproduces.
"""

from .baselines import run_b1, run_b2, run_x1
from .construction import run_c1, run_c2, run_cav1
from .extensions import run_d1, run_dy1, run_sq1
from .queries import run_a1, run_m1, run_r1, run_s1
from .speedup import run_sp1
from .structure import run_f1, run_f2, run_f3, run_t1
from .tables import Table

#: Registry: experiment id -> (description, zero-arg driver).
EXPERIMENTS = {
    "F1": ("Figure 1: segment tree structure", run_f1),
    "F2": ("Figure 2: Definition 2 labeling", run_f2),
    "F3": ("Figure 3: hat/forest decomposition", run_f3),
    "T1": ("Theorem 1: hat and forest sizes", run_t1),
    "C1": ("Theorem 2: construction scaling in n", run_c1),
    "C2": ("Theorem 2: construction scaling in p", run_c2),
    "S1": ("Theorem 3: batched search scaling", run_s1),
    "A1": ("Theorem 5: associative-function mode", run_a1),
    "R1": ("Theorem 5: report-mode k/p balance", run_r1),
    "B1": ("Baselines: range tree vs k-D tree vs brute force", run_b1),
    "B2": ("Ablation: layered range tree saves ~log n", run_b2),
    "X1": ("The Model: CGM sort primitive", run_x1),
    "M1": ("Hot-spot load balancing stress", run_m1),
    "CAV1": ("Section 6 caveat: records sorted per phase", run_cav1),
    "D1": ("Footnote: invertible aggregates via dominance counting", run_d1),
    "DY1": ("Section 6 open problem: dynamization (logarithmic method)", run_dy1),
    "SQ1": ("Section 6 open problem: single-query parallelism", run_sq1),
    "SP1": ("Modeled BSP speedup across machine personalities", run_sp1),
}

__all__ = [
    "Table",
    "EXPERIMENTS",
    "run_f1",
    "run_f2",
    "run_f3",
    "run_t1",
    "run_c1",
    "run_c2",
    "run_cav1",
    "run_s1",
    "run_a1",
    "run_r1",
    "run_m1",
    "run_b1",
    "run_b2",
    "run_x1",
    "run_d1",
    "run_dy1",
    "run_sq1",
    "run_sp1",
]
