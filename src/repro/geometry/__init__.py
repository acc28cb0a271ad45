"""Geometric substrate: points, boxes, rank-space normalisation."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".box": ("Box", "Interval", "RankBox"),
        ".point": ("Point", "PointSet"),
        ".rankspace": ("RankSpace", "RankedPointSet", "pad_to_power_of_two"),
    },
)
