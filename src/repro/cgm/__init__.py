"""Coarse Grained Multicomputer (weak CREW BSP) simulator substrate."""

from .backend import (
    Backend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    WorkerCrash,
    WorkerError,
    available_backends,
    make_backend,
    register_backend,
)
from .collectives import (
    allgather,
    allreduce,
    alltoall_broadcast,
    alltoallv,
    broadcast,
    gather,
    global_positions,
    partial_sum,
    route,
    route_balanced,
    scatter,
    segmented_broadcast,
    segmented_gather,
    segmented_partial_sum,
)
from .columns import RecordBatch
from .cost import CostModel
from .loadbalance import (
    assign_copies_round_robin,
    balance_by_weight,
    compute_copy_counts,
)
from .machine import Machine, ProcContext
from .metrics import Metrics, StepRecord
from .phases import get_phase, register_phase, registered_phases
from .sort import sample_sort, sample_sort_cols, sorted_and_balanced
from .trace import render_trace

__all__ = [
    "Machine",
    "ProcContext",
    "Backend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "WorkerError",
    "WorkerCrash",
    "make_backend",
    "register_backend",
    "available_backends",
    "register_phase",
    "get_phase",
    "registered_phases",
    "CostModel",
    "Metrics",
    "StepRecord",
    "alltoallv",
    "alltoall_broadcast",
    "allgather",
    "broadcast",
    "gather",
    "scatter",
    "allreduce",
    "partial_sum",
    "segmented_partial_sum",
    "segmented_broadcast",
    "segmented_gather",
    "route",
    "route_balanced",
    "global_positions",
    "sample_sort",
    "sample_sort_cols",
    "sorted_and_balanced",
    "render_trace",
    "balance_by_weight",
    "compute_copy_counts",
    "assign_copies_round_robin",
    "RecordBatch",
]
