"""PARSEC ``streamcluster`` workloads (Table II of the paper).

Streamcluster solves online k-median clustering; its inner loop
repeatedly evaluates opening a new cluster centre against every point,
a long sequence of similar parallel sections.  The paper varies the
point dimensionality to produce six instances with different
memory-to-compute ratios (Table II):

=========  ==============
instance   ``T_m1 / T_c``
=========  ==============
SC_d128    37.14%  (the PARSEC *native* input)
SC_d72     43.09%
SC_d48     28.90%
SC_d36     54.13%
SC_d32     24.59%
SC_d20     49.58%
=========  ==============

The trace model: ``rounds`` consecutive phases (the repeated pgain
evaluations) of equally-sized pairs, all at the instance's ratio.
With many pairs per phase and a stable ratio, the throttler selects
once and keeps its D-MTL — the behaviour behind the paper's 0.04%
monitoring overhead for this workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import WorkloadError
from repro.stream.program import StreamProgram, build_phase
from repro.units import cache_lines
from repro.workloads.base import (
    DEFAULT_FOOTPRINT_BYTES,
    check_task_count,
    compute_time_for_ratio,
)

__all__ = [
    "STREAMCLUSTER_RATIOS",
    "NATIVE_DIMENSION",
    "StreamclusterWorkload",
    "streamcluster",
]

#: Published ``T_m1 / T_c`` per input dimensionality (Table II).
STREAMCLUSTER_RATIOS: Dict[int, float] = {
    128: 0.3714,
    72: 0.4309,
    48: 0.2890,
    36: 0.5413,
    32: 0.2459,
    20: 0.4958,
}

#: The PARSEC-provided *native* input size (footnote 3 of the paper).
NATIVE_DIMENSION = 128


@dataclass(frozen=True)
class StreamclusterWorkload:
    """One streamcluster instance.

    Attributes:
        dimension: Input array dimensionality (one of the six studied).
        rounds: Number of consecutive pgain parallel sections.
        pairs_per_round: Task pairs per section.
        footprint_bytes: Memory-task tile size.
    """

    dimension: int = NATIVE_DIMENSION
    rounds: int = 6
    pairs_per_round: int = 64
    footprint_bytes: int = DEFAULT_FOOTPRINT_BYTES

    def __post_init__(self) -> None:
        if self.dimension not in STREAMCLUSTER_RATIOS:
            raise WorkloadError(
                f"dimension {self.dimension} not studied; pick one of "
                f"{sorted(STREAMCLUSTER_RATIOS)}"
            )
        if self.rounds < 1:
            raise WorkloadError(f"rounds must be >= 1, got {self.rounds}")
        if self.pairs_per_round < 1:
            raise WorkloadError(
                f"pairs_per_round must be >= 1, got {self.pairs_per_round}"
            )
        check_task_count(self.name, self.rounds * self.pairs_per_round)

    @property
    def name(self) -> str:
        return f"SC_d{self.dimension}"

    @property
    def ratio(self) -> float:
        return STREAMCLUSTER_RATIOS[self.dimension]

    def build(self) -> StreamProgram:
        requests = cache_lines(self.footprint_bytes)
        t_c = compute_time_for_ratio(self.ratio, self.footprint_bytes)
        phases: List = []
        for round_index in range(self.rounds):
            phases.append(
                build_phase(
                    name=f"pgain-{round_index}",
                    phase_index=round_index,
                    pair_count=self.pairs_per_round,
                    requests_per_memory_task=float(requests),
                    compute_seconds_per_task=t_c,
                    footprint_bytes=self.footprint_bytes,
                )
            )
        return StreamProgram(self.name, phases)


def streamcluster(dimension: int = NATIVE_DIMENSION) -> StreamProgram:
    """Build a streamcluster instance by input dimensionality."""
    return StreamclusterWorkload(dimension=dimension).build()
