"""Analysis and reporting helpers.

* :mod:`repro.analysis.stats` — geometric mean, mean and spread;
* :mod:`repro.analysis.tables` — fixed-width table rendering;
* :mod:`repro.analysis.figures` — data series and ASCII charts;
* :mod:`repro.analysis.report` — policy-comparison formatting.
"""

from repro.analysis.export import result_to_dict, result_to_json, series_to_csv
from repro.analysis.figures import Series, ascii_chart
from repro.analysis.report import (
    format_comparison,
    format_comparison_grid,
    geomean_improvement,
)
from repro.analysis.timeline import render_timeline
from repro.analysis.stats import arithmetic_mean, geometric_mean, stdev
from repro.analysis.tables import (
    format_percent,
    format_speedup,
    render_policy_matrix,
    render_table,
)

__all__ = [
    "Series",
    "arithmetic_mean",
    "ascii_chart",
    "format_comparison",
    "format_comparison_grid",
    "format_percent",
    "format_speedup",
    "geomean_improvement",
    "geometric_mean",
    "render_policy_matrix",
    "render_table",
    "render_timeline",
    "result_to_dict",
    "result_to_json",
    "series_to_csv",
    "stdev",
]
