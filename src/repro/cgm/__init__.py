"""Coarse Grained Multicomputer (weak CREW BSP) simulator substrate."""

from .backend import (
    Backend,
    ProcessBackend,
    SerialBackend,
    WorkerCrash,
    WorkerError,
    available_backends,
    make_backend,
)
from .collectives import allgather, alltoall_broadcast
from .columns import RecordBatch
from .cost import CostModel
from .loadbalance import assign_copies_round_robin, compute_copy_counts
from .machine import Machine, ProcContext
from .metrics import Metrics, StepRecord
from .phases import get_phase, register_phase, registered_phases
from .sort import sample_sort_cols, sorted_and_balanced
from .trace import render_trace

__all__ = [
    "Machine",
    "ProcContext",
    "Backend",
    "SerialBackend",
    "ProcessBackend",
    "WorkerError",
    "WorkerCrash",
    "make_backend",
    "available_backends",
    "register_phase",
    "get_phase",
    "registered_phases",
    "CostModel",
    "Metrics",
    "StepRecord",
    "alltoall_broadcast",
    "allgather",
    "sample_sort_cols",
    "sorted_and_balanced",
    "render_trace",
    "compute_copy_counts",
    "assign_copies_round_robin",
    "RecordBatch",
]
