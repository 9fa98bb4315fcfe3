"""SIFT (Scale-Invariant Feature Transform) workload (Table III).

SIFT++ builds a Gaussian scale-space pyramid (the convolution
functions), differences adjacent scales (DOG), and upsamples
(COPYUP).  The paper reports per-function memory-to-compute ratios
(Table III) spanning 7.8% to 70% — the phase diversity that motivates
*dynamic* MTL adaptation: the throttler must pick MTL=2 for ECONVOLVE
(70.04%) and drop to MTL=1 for ECONVOLVE2 (7.83%) as the program moves
through its pipeline (Section VI-D1).

The trace model: the functions as consecutive phases in pipeline
order, each with the published ratio.  Later pyramid octaves process
smaller images, reflected in the decreasing pair counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import WorkloadError
from repro.stream.program import ProgramPhase, StreamProgram, build_phase
from repro.units import cache_lines
from repro.workloads.base import DEFAULT_FOOTPRINT_BYTES, compute_time_for_ratio

__all__ = ["SIFT_FUNCTION_RATIOS", "SiftWorkload", "sift", "sift_function"]

#: Published ``T_m1 / T_c`` per parallel function (Table III), in
#: pipeline order.
SIFT_FUNCTION_RATIOS: Dict[str, float] = {
    "COPYUP": 0.2102,
    "ECONVOLVE": 0.7004,
    "ECONVOLVE2": 0.0783,
    "ECONVOLVE3-0": 0.0845,
    "ECONVOLVE3-1": 0.0845,
    "ECONVOLVE3-2": 0.0832,
    "ECONVOLVE3-3": 0.0827,
    "ECONVOLVE3-4": 0.0815,
    "ECONVOLVE4-0": 0.1187,
    "ECONVOLVE4-1": 0.1166,
    "ECONVOLVE4-2": 0.1210,
    "ECONVOLVE4-3": 0.1168,
    "ECONVOLVE4-4": 0.1153,
    "DOG": 0.6032,
}

#: Task pairs per function: the convolution pyramid shrinks by octave,
#: so later functions carry less parallel work.
_DEFAULT_PAIR_COUNTS: Dict[str, int] = {
    "COPYUP": 96,
    "ECONVOLVE": 96,
    "ECONVOLVE2": 96,
    "ECONVOLVE3-0": 80,
    "ECONVOLVE3-1": 80,
    "ECONVOLVE3-2": 80,
    "ECONVOLVE3-3": 80,
    "ECONVOLVE3-4": 80,
    "ECONVOLVE4-0": 64,
    "ECONVOLVE4-1": 64,
    "ECONVOLVE4-2": 64,
    "ECONVOLVE4-3": 64,
    "ECONVOLVE4-4": 64,
    "DOG": 96,
}


def _build_function_phase(
    function: str, phase_index: int, pairs: int, footprint_bytes: int
) -> ProgramPhase:
    ratio = SIFT_FUNCTION_RATIOS[function]
    requests = cache_lines(footprint_bytes)
    t_c = compute_time_for_ratio(ratio, footprint_bytes)
    return build_phase(
        name=function,
        phase_index=phase_index,
        pair_count=pairs,
        requests_per_memory_task=float(requests),
        compute_seconds_per_task=t_c,
        footprint_bytes=footprint_bytes,
    )


@dataclass(frozen=True)
class SiftWorkload:
    """The full SIFT pipeline as a phased stream program."""

    footprint_bytes: int = DEFAULT_FOOTPRINT_BYTES
    pair_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.pair_scale <= 0:
            raise WorkloadError(
                f"pair_scale must be positive, got {self.pair_scale}"
            )

    @property
    def name(self) -> str:
        return "SIFT"

    def build(self) -> StreamProgram:
        phases: List[ProgramPhase] = []
        for index, function in enumerate(SIFT_FUNCTION_RATIOS):
            pairs = max(int(_DEFAULT_PAIR_COUNTS[function] * self.pair_scale), 1)
            phases.append(
                _build_function_phase(
                    function, index, pairs, self.footprint_bytes
                )
            )
        return StreamProgram(self.name, phases)


def sift() -> StreamProgram:
    """Build the full 14-phase SIFT pipeline."""
    return SiftWorkload().build()


def sift_function(function: str, pairs: int = None) -> StreamProgram:
    """Build one SIFT parallel function as a standalone program.

    Figure 16 of the paper evaluates the main functions individually;
    this gives the same granularity.
    """
    if function not in SIFT_FUNCTION_RATIOS:
        raise WorkloadError(
            f"unknown SIFT function {function!r}; known: "
            f"{', '.join(SIFT_FUNCTION_RATIOS)}"
        )
    count = pairs if pairs is not None else _DEFAULT_PAIR_COUNTS[function]
    if count < 1:
        raise WorkloadError(f"pairs must be >= 1, got {count}")
    phase = _build_function_phase(function, 0, count, DEFAULT_FOOTPRINT_BYTES)
    return StreamProgram(f"SIFT.{function}", [phase])
