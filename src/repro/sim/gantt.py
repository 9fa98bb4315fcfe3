"""ASCII gantt rendering of simulated schedules.

Figures 1, 4, and 5 of the paper are schedule diagrams: per-core
timelines showing memory tasks, compute tasks, and the idle gaps the
MTL constraint introduces.  :func:`render_gantt` reproduces them as
terminal art, e.g.::

    P0 |MMMMMM CCCCCCCCCCCC MMMM CCCCCCCCCCCC            |
    P1 |......MMMMMM CCCCCCCCCCCC MMMM CCCCCCCCCCC       |

``M`` = memory task, ``C`` = compute task, ``.`` = idle while waiting
for an MTL token, space = no work available.
"""

from __future__ import annotations

from operator import attrgetter
from typing import List

from repro.errors import ConfigurationError
from repro.sim.results import SimulationResult
from repro.units import format_time

__all__ = ["render_gantt"]


def render_gantt(result: SimulationResult, width: int = 80) -> str:
    """Render the schedule of ``result`` as fixed-width ASCII rows.

    Args:
        result: A completed simulation.
        width: Character columns representing the full makespan.
    """
    if width < 10:
        raise ConfigurationError(f"width must be >= 10, got {width}")
    span = result.makespan
    if span <= 0:
        return f"{result.program_name}: empty schedule"

    scale = width / span
    lines: List[str] = [
        f"{result.program_name} on {result.machine_name} under "
        f"{result.policy_name} — makespan {format_time(span)}",
    ]
    rows = [[" "] * width for _ in range(result.context_count)]
    # In start order: a later task paints over an earlier one's cell.
    for record in sorted(result.records, key=attrgetter("start")):
        begin = min(int(record.start * scale), width - 1)
        end = max(min(int(record.end * scale), width), begin + 1)  # >= 1 cell
        symbol = "M" if record.is_memory else "C"
        rows[record.context_id][begin:end] = symbol * (end - begin)
    lines += [f"P{context} |{''.join(row)}|" for context, row in enumerate(rows)]
    legend = "    M=memory  C=compute  (blank=idle)"
    lines.append(legend)
    return "\n".join(lines)
