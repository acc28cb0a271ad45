"""repro — reproduction of *d-Dimensional Range Search on Multicomputers*.

Ferreira, Kenyon, Rau-Chaplin, Ubeda (LIP RR-96-23 / IPPS 1997).

Public API overview
-------------------
Geometry:           :class:`PointSet`, :class:`Box`
Sequential trees:   :class:`SequentialRangeTree`, :class:`LayeredSequentialRangeTree`,
                    :class:`KDTree`, brute-force oracles
Semigroups:         :data:`COUNT`, :func:`sum_of_dim`, ...
CGM machine:        :class:`repro.cgm.Machine`
Distributed tree:   :class:`repro.dist.DistributedRangeTree`
Query layer:        :mod:`repro.query` — :class:`Query`, :class:`QueryBatch`,
                    :func:`count`/:func:`report`/:func:`aggregate`,
                    :class:`ResultSet`
Workloads:          :mod:`repro.workloads`

Every name here, and in each subpackage's ``__all__``, resolves on first
access: ``from repro import KDTree`` imports the k-d tree module then,
and a process that never names it never loads it.
"""

from __future__ import annotations

from ._lazy import lazy_exports

__version__ = "1.1.0"

_names, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".errors": (
            "ReproError",
            "GeometryError",
            "DimensionMismatch",
            "EmptyPointSet",
            "MachineError",
            "PowerOfTwoError",
            "CapacityExceeded",
            "ProtocolError",
        ),
        ".geometry": ("Box", "Point", "PointSet", "RankBox", "RankSpace", "pad_to_power_of_two"),
        ".semigroup": (
            "Semigroup",
            "COUNT",
            "count_semigroup",
            "sum_of_dim",
            "min_of_dim",
            "max_of_dim",
            "id_set",
            "bounding_box_semigroup",
            "moments_of_dim",
        ),
        ".seq": (
            "SequentialRangeTree",
            "LayeredSequentialRangeTree",
            "KDTree",
            "BruteForceIndex",
            "DynamicRangeTree",
            "bf_report",
            "bf_count",
            "bf_aggregate",
        ),
        ".cgm": ("Machine", "CostModel"),
        ".dist": ("DistributedRangeTree", "DynamicDistributedRangeTree"),
        ".query": ("Query", "QueryBatch", "QueryEngine", "ResultSet", "count", "report", "aggregate"),
    },
)
__all__ = ["__version__", *_names]
