"""Commutative semigroups for the associative-function query mode."""

from .base import Semigroup
from .group import AbelianGroup, count_group, sum_group, vector_sum_group
from .builtin import (
    COUNT,
    NO_LAYERS,
    ProductSemigroup,
    annotation_of,
    bounding_box_semigroup,
    count_semigroup,
    histogram_of_dim,
    product_semigroup,
    top_k_ids,
    id_set,
    is_count,
    max_of_dim,
    min_of_dim,
    moments_of_dim,
    sum_of_dim,
)
from .kernels import KernelColumn, ObjectKernel, SemigroupKernel

__all__ = [
    "Semigroup",
    "ProductSemigroup",
    "product_semigroup",
    "AbelianGroup",
    "count_group",
    "sum_group",
    "vector_sum_group",
    "COUNT",
    "NO_LAYERS",
    "annotation_of",
    "is_count",
    "count_semigroup",
    "sum_of_dim",
    "min_of_dim",
    "max_of_dim",
    "id_set",
    "bounding_box_semigroup",
    "moments_of_dim",
    "top_k_ids",
    "histogram_of_dim",
    "SemigroupKernel",
    "ObjectKernel",
    "KernelColumn",
]
