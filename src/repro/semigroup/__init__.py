"""Commutative semigroups for the associative-function query mode."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("Semigroup",),
        ".builtin": (
            "ProductSemigroup",
            "product_semigroup",
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
        ),
        ".group": ("AbelianGroup", "count_group", "sum_group", "vector_sum_group"),
        ".kernels": ("SemigroupKernel", "ObjectKernel", "KernelColumn"),
    },
)
