"""The synthetic micro-benchmark (Figure 12 of the paper).

The kernel is a simple array computation: each memory task stores a
constant into its array tile (streaming it through the LLC); each
compute task makes ``count`` passes over the tile adding a constant.
Two construction paths are provided:

* :func:`synthetic_from_count` — faithful to Figure 12: the ``count``
  knob sets the compute time from a per-element-per-pass cost.
* :func:`synthetic_from_ratio` — the evaluation's parameterisation:
  the target ``T_m1 / T_c`` ratio directly (the paper sweeps 0.01 to
  4.00 in 0.01 steps).

The footprint knob reproduces the Figure 13 variants: 0.5 MB and 1 MB
tiles fit the per-core LLC share; 2 MB tiles overflow it, so the
compute tasks carry spilled off-chip requests (computed from the LLC
model) and interfere with memory tasks — the effect that breaks the
analytical model in Figure 13(c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import WorkloadError
from repro.memory.cache import LastLevelCache
from repro.stream.program import StreamProgram, build_phase
from repro.units import cache_lines, mebibytes
from repro.workloads.base import (
    DEFAULT_FOOTPRINT_BYTES,
    check_task_count,
    compute_time_for_ratio,
)

__all__ = [
    "SyntheticWorkload",
    "synthetic_from_ratio",
    "synthetic_from_count",
    "ratio_sweep",
]

#: Seconds per array element per compute pass (the cost of one
#: ``A[i] += k``) used by the count-based constructor: a handful of
#: cycles on a 2.8 GHz Nehalem.
_SECONDS_PER_ELEMENT_PASS = 1.5e-9

#: Bytes per array element (``A`` is a double array).
_ELEMENT_BYTES = 8


@dataclass(frozen=True)
class SyntheticWorkload:
    """One synthetic workload instance.

    Attributes:
        ratio: Target ``T_m1 / T_c`` on the reference machine.
        footprint_bytes: Memory-task tile size.
        pairs: Number of memory/compute task pairs.
        cache: Optional LLC model; when the tile overflows the per-core
            share the compute tasks carry the spilled requests.
    """

    ratio: float
    footprint_bytes: int = DEFAULT_FOOTPRINT_BYTES
    pairs: int = 64
    cache: Optional[LastLevelCache] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio < math.inf:
            raise WorkloadError(
                f"ratio must be positive and finite, got {self.ratio}"
            )
        if self.footprint_bytes <= 0:
            raise WorkloadError(
                f"footprint_bytes must be positive, got {self.footprint_bytes}"
            )
        if self.pairs < 1:
            raise WorkloadError(f"pairs must be >= 1, got {self.pairs}")
        check_task_count(self.name, self.pairs)

    @property
    def name(self) -> str:
        footprint_mb = self.footprint_bytes / mebibytes(1)
        return f"synthetic(r={self.ratio:.2f},{footprint_mb:g}MB)"

    def build(self) -> StreamProgram:
        requests = cache_lines(self.footprint_bytes)
        t_c = compute_time_for_ratio(self.ratio, self.footprint_bytes)
        spill = 0.0
        if self.cache is not None:
            spill = self.cache.miss_fraction(self.footprint_bytes) * requests
        phase = build_phase(
            name="kernel",
            phase_index=0,
            pair_count=self.pairs,
            requests_per_memory_task=float(requests),
            compute_seconds_per_task=t_c,
            footprint_bytes=self.footprint_bytes,
            compute_spill_requests=spill,
        )
        return StreamProgram(self.name, [phase])


def synthetic_from_ratio(
    ratio: float,
    footprint_bytes: int = DEFAULT_FOOTPRINT_BYTES,
    pairs: int = 64,
    cache: Optional[LastLevelCache] = None,
) -> StreamProgram:
    """Build a synthetic program with a target ``T_m1/T_c`` ratio."""
    return SyntheticWorkload(
        ratio=ratio, footprint_bytes=footprint_bytes, pairs=pairs, cache=cache
    ).build()


def synthetic_from_count(
    count: int,
    footprint_bytes: int = DEFAULT_FOOTPRINT_BYTES,
    pairs: int = 64,
    cache: Optional[LastLevelCache] = None,
) -> StreamProgram:
    """Build the Figure 12 kernel from its ``count`` knob.

    ``count`` passes over ``footprint / 8`` double elements define the
    compute time; the implied ``T_m1 / T_c`` falls out of the tile's
    request count.
    """
    if count < 1:
        raise WorkloadError(f"count must be >= 1, got {count}")
    if footprint_bytes <= 0:
        raise WorkloadError(
            f"footprint_bytes must be positive, got {footprint_bytes}"
        )
    elements = footprint_bytes // _ELEMENT_BYTES
    t_c = count * elements * _SECONDS_PER_ELEMENT_PASS
    requests = cache_lines(footprint_bytes)
    spill = 0.0
    if cache is not None:
        spill = cache.miss_fraction(footprint_bytes) * requests
    phase = build_phase(
        name=f"kernel(count={count})",
        phase_index=0,
        pair_count=pairs,
        requests_per_memory_task=float(requests),
        compute_seconds_per_task=t_c,
        footprint_bytes=footprint_bytes,
        compute_spill_requests=spill,
    )
    return StreamProgram(f"synthetic(count={count})", [phase])


def ratio_sweep(
    start: float = 0.01,
    stop: float = 4.00,
    step: float = 0.01,
    footprint_bytes: int = DEFAULT_FOOTPRINT_BYTES,
    pairs: int = 64,
    cache: Optional[LastLevelCache] = None,
) -> List[SyntheticWorkload]:
    """The Figure 13 sweep: ratios ``start..stop`` in ``step`` steps."""
    if step <= 0:
        raise WorkloadError(f"step must be positive, got {step}")
    if stop < start:
        raise WorkloadError(f"stop ({stop}) must be >= start ({start})")
    workloads: List[SyntheticWorkload] = []
    steps = int(round((stop - start) / step))
    for i in range(steps + 1):
        ratio = round(start + i * step, 10)
        if ratio > stop + 1e-12:
            break
        workloads.append(
            SyntheticWorkload(
                ratio=ratio,
                footprint_bytes=footprint_bytes,
                pairs=pairs,
                cache=cache,
            )
        )
    return workloads
