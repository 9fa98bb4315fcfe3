"""Statistics helpers for experiment reporting.

The paper summarises realistic-workload results as a geometric mean of
speedups ("a geometric mean of 12% performance improvement").  The
least-squares line fit lives with its one user, the contention-law
calibration (:mod:`repro.memory.calibration`).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.errors import MeasurementError

__all__ = ["geometric_mean", "arithmetic_mean", "stdev"]


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise MeasurementError("geometric_mean of an empty sample")
    if any(v <= 0 for v in values):
        raise MeasurementError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values: Sequence[float]) -> float:
    """Plain mean."""
    if not values:
        raise MeasurementError("arithmetic_mean of an empty sample")
    return sum(values) / len(values)


def stdev(values: Sequence[float]) -> float:
    """Population standard deviation."""
    if not values:
        raise MeasurementError("stdev of an empty sample")
    mean = arithmetic_mean(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
