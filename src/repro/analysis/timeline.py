"""ASCII timelines of MTL decisions and memory concurrency.

The gantt chart shows *what ran where*; this module shows *what the
throttler did and what the memory system felt*: the MTL constraint as
a step function over time, aligned with the memory-concurrency
profile, e.g.::

    MTL  |44444422222222222222222222222222222222222222222222|
    mem  |44444422222122222212222221222222122222212222221222|
          0 ms                                        206 ms

The gate is checked in code by ``SimulationResult.verify``; here a
``mem`` column exceeds the ``MTL`` column only while a lowered limit
drains, since lowering the MTL never preempts a running memory task.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError
from repro.sim.results import SimulationResult
from repro.units import format_time

__all__ = ["render_timeline"]


def _sample_step(
    segments: List[tuple], span: float, width: int, default: int
) -> List[int]:
    """Sample a piecewise-constant function onto ``width`` columns."""
    samples = []
    for column in range(width):
        when = (column + 0.5) * span / width
        value = default
        for start, end, level in segments:
            if start <= when < end:
                value = level
                break
        samples.append(value)
    return samples


def render_timeline(result: SimulationResult, width: int = 60) -> str:
    """Render MTL constraint and memory concurrency over time."""
    if width < 10:
        raise ConfigurationError(f"width must be >= 10, got {width}")
    span = result.makespan
    if span <= 0:
        return f"{result.program_name}: empty timeline"

    mtl_row = _sample_step(result.mtl_profile(), span, width, default=0)
    mem_row = _sample_step(
        result.memory_concurrency_profile(), span, width, default=0
    )

    def row_text(values: List[int]) -> str:
        return "".join(str(min(v, 9)) if v > 0 else "." for v in values)

    header = (
        f"{result.program_name} under {result.policy_name} — MTL constraint "
        "vs memory concurrency"
    )
    footer = f"      0 s{'':{max(width - 18, 1)}}{format_time(span)}"
    return "\n".join(
        [
            header,
            f"MTL  |{row_text(mtl_row)}|",
            f"mem  |{row_text(mem_row)}|",
            footer,
        ]
    )
