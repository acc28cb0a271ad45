"""Coarse Grained Multicomputer (weak CREW BSP) simulator substrate."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".machine": ("Machine", "ProcContext"),
        ".backend": ("Backend", "SerialBackend", "make_backend", "available_backends"),
        ".process": ("ProcessBackend", "WorkerError"),
        "..errors": ("WorkerCrash",),
        ".phases": ("register_phase", "register_host_phase", "get_phase", "registered_phases"),
        ".cost": ("CostModel",),
        ".metrics": ("Metrics", "StepRecord"),
        ".collectives": ("alltoall_broadcast", "allgather"),
        ".sort": ("sample_sort_cols", "sorted_and_balanced"),
        ".trace": ("render_trace",),
        ".loadbalance": ("compute_copy_counts", "assign_copies_round_robin"),
        ".columns": ("RecordBatch",),
    },
)
