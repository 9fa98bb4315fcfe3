"""Exact S-MTL region algebra for the synthetic sweep.

Figure 13 partitions the ratio axis into regions by the best static
MTL (S-MTL).  The paper eyeballs the first boundary at 0.33; the
analytical model actually puts every boundary at a computable
crossing of two speedup curves.  This module computes the exact
partition for any contention model; the tests check simulated offline
searches against it, and ``docs/analytical_model.md`` quotes its
boundaries instead of magic constants:

* within a region the best-MTL speedup is the hill the paper
  describes (rising while all cores stay busy at that MTL, falling
  once they idle);
* the boundary between region ``k`` and ``k+1`` is where the two
  curves cross — at ``r = 1 / (n - g_k(k+1)·?)``-style expressions
  that are clumsy in closed form, so we locate them by bisection on
  the argmax, which is exact to the requested tolerance for any
  latency law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.model import predict_speedup_curve
from repro.errors import ModelError
from repro.memory.contention import ContentionModel

__all__ = ["SMtlRegion", "s_mtl_regions"]


@dataclass(frozen=True)
class SMtlRegion:
    """One maximal ratio interval sharing a best static MTL.

    Attributes:
        low: Inclusive lower ratio bound.
        high: Exclusive upper ratio bound (the next region's low).
        mtl: Best static MTL throughout the interval.
    """

    low: float
    high: float
    mtl: int

    def contains(self, ratio: float) -> bool:
        return self.low <= ratio < self.high

    @property
    def width(self) -> float:
        return self.high - self.low


def _best_mtl(
    ratio: float, contention: ContentionModel, core_count: int, channels: int
) -> int:
    return predict_speedup_curve(
        [ratio], contention, core_count=core_count, channels=channels
    )[0].best_mtl


def s_mtl_regions(
    contention: ContentionModel,
    core_count: int = 4,
    channels: int = 1,
    ratio_low: float = 0.01,
    ratio_high: float = 4.0,
    tolerance: float = 1e-6,
) -> List[SMtlRegion]:
    """Partition ``[ratio_low, ratio_high)`` by best static MTL.

    Scans on a coarse grid to find argmax changes, then bisects each
    change to ``tolerance``.  Works for any latency law satisfying the
    model's monotonicity assumptions (best MTL is then non-decreasing
    in the ratio, which is also verified and reported as a
    :class:`~repro.errors.ModelError` if violated).
    """
    if ratio_low <= 0 or ratio_high <= ratio_low:
        raise ModelError(
            f"need 0 < ratio_low < ratio_high, got [{ratio_low}, {ratio_high}]"
        )
    if tolerance <= 0:
        raise ModelError(f"tolerance must be positive, got {tolerance}")

    # Coarse scan: fine enough that no region narrower than a step is
    # skipped (regions of the linear law are all wider than 0.02 for
    # n <= 32).
    steps = 400
    grid = [
        ratio_low + (ratio_high - ratio_low) * i / steps for i in range(steps + 1)
    ]
    labels = [
        _best_mtl(r, contention, core_count, channels) for r in grid
    ]

    regions: List[SMtlRegion] = []
    region_start = ratio_low
    for i in range(len(grid) - 1):
        if labels[i + 1] == labels[i]:
            continue
        if labels[i + 1] < labels[i]:
            raise ModelError(
                "best MTL decreased with the ratio (from "
                f"{labels[i]} to {labels[i + 1]} near {grid[i]:.3f}); the "
                "latency law violates the model's monotonicity assumptions"
            )
        boundary = _bisect_boundary(
            grid[i], grid[i + 1], labels[i], contention, core_count,
            channels, tolerance,
        )
        regions.append(
            SMtlRegion(low=region_start, high=boundary, mtl=labels[i])
        )
        region_start = boundary
    regions.append(
        SMtlRegion(low=region_start, high=ratio_high, mtl=labels[-1])
    )
    return regions


def _bisect_boundary(
    low: float,
    high: float,
    low_label: int,
    contention: ContentionModel,
    core_count: int,
    channels: int,
    tolerance: float,
) -> float:
    while high - low > tolerance:
        mid = (low + high) / 2
        if _best_mtl(mid, contention, core_count, channels) == low_label:
            low = mid
        else:
            high = mid
    return (low + high) / 2
