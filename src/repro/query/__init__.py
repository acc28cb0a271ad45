"""The unified query layer: declarative batches over the distributed tree.

The paper's Theorems 3-5 are three output modes of *one* Algorithm
Search; this package makes that structure the public API.  Describe what
you want with :class:`Query` descriptors (mixing modes freely in a
:class:`QueryBatch`), hand the batch to the tree, and read a structured
:class:`ResultSet` back — the engine answers the whole batch in a single
search pass no matter how the modes mix::

    from repro import DistributedRangeTree
    from repro.query import QueryBatch, count, report, aggregate

    tree = DistributedRangeTree.build([(0.1, 0.2), (0.5, 0.7), (0.9, 0.4)], p=2)
    rs = tree.run([
        count(((0.0, 1.0), (0.0, 1.0))),
        report(((0.0, 0.6), (0.0, 1.0))),
        aggregate(((0.0, 1.0), (0.0, 0.5))),
    ])
    rs.values()      # [3, [0, 1], 2]
    rs.rounds        # one search pass + three demux rounds (5 + log2 p)

New output modes (top-k, sampled report, yours) plug in through the
:mod:`repro.query.modes` registry without touching the search kernel.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".descriptors": (
            "Query",
            "QueryBatch",
            "count",
            "report",
            "aggregate",
            "top_k",
            "sample_report",
            "as_box",
        ),
        ".engine": ("QueryEngine", "QueryPlan"),
        ".epochs": ("EpochCombiner",),
        ".modes": (
            "OutputMode",
            "register_mode",
            "get_mode",
            "registered_modes",
            "CountMode",
            "AggregateMode",
            "ReportMode",
            "TopKMode",
            "SampleReportMode",
        ),
        ".result": ("QueryResult", "ResultSet"),
    },
)
