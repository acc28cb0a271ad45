"""Synthetic point and query workload generators."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".points": (
            "POINT_DISTRIBUTIONS",
            "uniform_points",
            "clustered_points",
            "grid_points",
            "diagonal_points",
            "make_points",
        ),
        ".queries": (
            "QUERY_WORKLOADS",
            "uniform_queries",
            "selectivity_queries",
            "hotspot_queries",
            "point_centred_queries",
            "make_queries",
        ),
        ".streams": ("StreamOp", "update_query_stream", "stream_counts"),
    },
)
