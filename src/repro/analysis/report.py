"""Experiment report formatting.

Turns :class:`~repro.runtime.experiment.ComparisonResult` objects into
the bar-chart-like rows of Figures 14, 16, 17, and 18: one line per
policy with its speedup and the MTL it selected (the number printed on
each bar in the paper).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.analysis.stats import geometric_mean
from repro.analysis.tables import format_percent, format_speedup, render_table

if TYPE_CHECKING:  # avoid a layering cycle: analysis is below runtime
    from repro.runtime.experiment import ComparisonResult

__all__ = ["format_comparison", "format_comparison_grid", "geomean_improvement"]


def format_comparison(
    result: ComparisonResult, include_stats: bool = False
) -> str:
    """One workload's policy comparison as a table.

    With ``include_stats``, the per-plugin counter snapshots carried
    on each :class:`~repro.runtime.experiment.PolicyOutcome` (the same
    counters the executor's ``point`` telemetry carries) follow
    the table as one ``policy: stat=value ...`` line per policy that
    registered any; policies without counters are omitted.  Off by
    default so existing golden artifacts keep their exact bytes.
    """
    rows = []
    for outcome in result.outcomes:
        rows.append(
            [
                outcome.policy_name,
                format_speedup(outcome.speedup),
                "-" if outcome.selected_mtl is None else str(outcome.selected_mtl),
                format_percent(outcome.probe_fraction),
            ]
        )
    table = render_table(
        ["Policy", "Speedup", "MTL", "Probe share"], rows
    )
    report = f"{result.program_name} on {result.machine_name}\n{table}"
    if include_stats:
        stat_lines = [
            "  {}: {}".format(
                outcome.policy_name,
                " ".join(f"{stat}={value:g}" for stat, value in outcome.stats),
            )
            for outcome in result.outcomes
            if outcome.stats
        ]
        if stat_lines:
            report += "\n\npolicy stats (instrumented run):\n" + "\n".join(
                stat_lines
            )
    return report


def format_comparison_grid(
    results: Sequence[ComparisonResult], policy_names: Sequence[str]
) -> str:
    """Several workloads x several policies, one row per workload."""
    headers = ["Workload"] + [f"{name} (MTL)" for name in policy_names]
    rows = []
    for result in results:
        row = [result.program_name]
        for name in policy_names:
            outcome = result.outcome(name)
            mtl = "-" if outcome.selected_mtl is None else str(outcome.selected_mtl)
            row.append(f"{format_speedup(outcome.speedup)} ({mtl})")
        rows.append(row)
    return render_table(headers, rows)


def geomean_improvement(
    results: Sequence[ComparisonResult], policy_name: str
) -> float:
    """Geometric-mean improvement of one policy across workloads.

    Returns the improvement fraction (0.12 for the paper's headline
    "12% performance improvement").
    """
    speedups = [result.speedup(policy_name) for result in results]
    return geometric_mean(speedups) - 1.0
