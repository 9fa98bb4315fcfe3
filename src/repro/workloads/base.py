"""Workload protocol and calibration helpers.

The paper characterises every workload by its memory-to-compute ratio
``T_m1 / T_c`` (Tables II and III), measured on the reference machine
— the 1-DIMM i7-860.  Our workloads are *trace-driven*: each is a
stream program whose memory tasks carry a real footprint (hence a real
request count) and whose compute time is calibrated so that the
program reproduces the published ratio on the reference machine.  On
any other machine (2-DIMM, SMT) the ratio then shifts naturally with
the memory system, exactly as a real binary's would.
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

from repro.errors import WorkloadError
from repro.memory.contention import nehalem_ddr3_contention
from repro.stream.program import StreamProgram
from repro.units import cache_lines, mebibytes

__all__ = [
    "Workload",
    "REFERENCE_SOLO_LATENCY",
    "DEFAULT_FOOTPRINT_BYTES",
    "MAX_WORKLOAD_TASKS",
    "check_task_count",
    "compute_time_for_ratio",
]

#: ``L(1)`` of the reference machine (1-DIMM i7-860); the basis every
#: published ``T_m1/T_c`` ratio is calibrated against.
REFERENCE_SOLO_LATENCY = nehalem_ddr3_contention().request_latency(1.0)

#: Default memory-task footprint: 0.5 MB, comfortably inside the
#: per-core LLC share, as the real-workload experiments require
#: (Section V: "always less than the last-level cache size per core").
DEFAULT_FOOTPRINT_BYTES = mebibytes(0.5)

#: The most tasks (two per pair) a synthetic, streamcluster or spec
#: workload may have: 45x SIFT's 2,208, so a mistyped size fails at
#: once instead of building for minutes.
MAX_WORKLOAD_TASKS = 100_000


@runtime_checkable
class Workload(Protocol):
    """A named generator of stream programs."""

    @property
    def name(self) -> str:
        """Workload name as reported in the paper's tables."""

    def build(self) -> StreamProgram:
        """Materialise the workload as a stream program."""


def check_task_count(name: str, pairs: int) -> None:
    """Reject a workload of more than :data:`MAX_WORKLOAD_TASKS` tasks,
    before any task is built."""
    if 2 * pairs > MAX_WORKLOAD_TASKS:
        raise WorkloadError(
            f"workload {name!r} has {pairs} pairs ({2 * pairs} tasks); "
            f"at most {MAX_WORKLOAD_TASKS} tasks are accepted"
        )


def compute_time_for_ratio(
    ratio: float, footprint_bytes: int = DEFAULT_FOOTPRINT_BYTES
) -> float:
    """Compute-task seconds giving ``T_m1 / T_c = ratio`` at reference.

    ``T_m1`` is the footprint's request count times the reference
    solo latency; the returned ``T_c`` is ``T_m1 / ratio``.
    """
    if not 0.0 < ratio < math.inf:
        raise WorkloadError(f"ratio must be positive and finite, got {ratio}")
    if footprint_bytes <= 0:
        raise WorkloadError(
            f"footprint_bytes must be positive, got {footprint_bytes}"
        )
    t_m1 = cache_lines(footprint_bytes) * REFERENCE_SOLO_LATENCY
    t_c = t_m1 / ratio
    if t_c == math.inf:
        # A subnormal ratio overflows the quotient.
        raise WorkloadError(
            f"ratio {ratio!r} is too small: T_c = T_m1 / ratio overflows"
        )
    return t_c
