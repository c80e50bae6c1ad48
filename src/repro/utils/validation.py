"""Argument-validation helpers.

These raise ``ValueError`` with a uniform message format so call sites stay
one-liners and error messages across the library read consistently.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def require_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive, else raise ``ValueError``."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_count(value, name: str) -> int:
    """Return ``value`` as an ``int`` if it is an integer >= 0, else raise.

    Floats are rejected even when integral: a count that arrives as
    ``4.0`` is a caller bug that numpy would only report much later.
    """
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return int(value)


def require_nonnegative(value: float, name: str) -> float:
    """Return ``value`` if >= 0, else raise ``ValueError``."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def require_in_range(
    value: float, name: str, low: float, high: float, *, inclusive: bool = True
) -> float:
    """Return ``value`` if inside ``[low, high]`` (or ``(low, high)``)."""
    ok = low <= value <= high if inclusive else low < value < high
    if not ok:
        brackets = "[]" if inclusive else "()"
        raise ValueError(
            f"{name} must be in {brackets[0]}{low}, {high}{brackets[1]}, got {value!r}"
        )
    return value


def require_probability(value: float, name: str) -> float:
    """Return ``value`` if it is a valid probability in [0, 1]."""
    return require_in_range(value, name, 0.0, 1.0)


def require_sorted(values: Sequence[float], name: str) -> np.ndarray:
    """Return ``values`` as an array if nondecreasing, else raise."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size > 1 and np.any(np.diff(arr) < 0):
        raise ValueError(f"{name} must be sorted in nondecreasing order")
    return arr
