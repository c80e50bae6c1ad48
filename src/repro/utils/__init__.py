"""Shared low-level utilities: RNG plumbing, binning, argument validation."""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.binning import bin_counts, bin_edges, aggregate
from repro.utils.validation import (
    require_count,
    require_positive,
    require_nonnegative,
    require_in_range,
    require_probability,
    require_sorted,
)

__all__ = [
    "as_rng",
    "spawn_rngs",
    "bin_counts",
    "bin_edges",
    "aggregate",
    "require_count",
    "require_positive",
    "require_nonnegative",
    "require_in_range",
    "require_probability",
    "require_sorted",
]
