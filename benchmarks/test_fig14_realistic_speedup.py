"""Figure 14: realistic-workload speedups under the three policies.

The paper's headline evaluation: dft, streamcluster (native), and
SIFT on the 4-thread, 1-DIMM i7-860, comparing Offline Exhaustive
Search, the dynamic throttling mechanism, and Online Exhaustive
Search — all against the conventional schedule.  Published findings
asserted here:

* the dynamic mechanism improves every workload, with a geometric
  mean around 12% (shape target: solidly positive and the largest
  improvements on streamcluster);
* dynamic is close to (within a few percent of) offline exhaustive
  search despite needing no offline runs;
* dynamic beats online exhaustive search on average (paper: by ~5%);
* dynamic's monitoring overhead is far below online's (paper: 0.04%
  vs 4.87% on streamcluster);
* selected MTLs: D-MTL = 1 for dft (ratio 12.77% <= 33%), D-MTL = 2
  for streamcluster native (37.14% > 33%).
"""

import pytest

from _helpers import bench_executor, run_once, save_artifact
from repro.analysis import (
    format_comparison_grid,
    format_percent,
    geomean_improvement,
    render_table,
)
from repro.runtime import compare_policies, paper_policy_specs
from repro.workloads import realistic_workloads

POLICY_ORDER = [
    "Offline Exhaustive Search",
    "Dynamic Throttling",
    "Online Exhaustive Search",
]


def regenerate_fig14():
    executor = bench_executor()
    return [
        compare_policies(
            {"kind": "registry", "name": name},
            paper_policy_specs(),
            executor=executor,
        )
        for name in realistic_workloads()
    ]


@pytest.mark.benchmark(group="fig14")
def test_fig14_realistic_speedup(benchmark):
    results = run_once(benchmark, regenerate_fig14)
    by_name = {r.program_name: r for r in results}

    grid = format_comparison_grid(results, POLICY_ORDER)
    overhead_rows = [
        [
            r.program_name,
            format_percent(r.outcome("Dynamic Throttling").probe_fraction),
            format_percent(
                r.outcome("Online Exhaustive Search").probe_fraction
            ),
        ]
        for r in results
    ]
    overheads = render_table(
        ["Workload", "Dynamic monitoring share", "Online monitoring share"],
        overhead_rows,
    )
    dynamic_gain = geomean_improvement(results, "Dynamic Throttling")
    online_gain = geomean_improvement(results, "Online Exhaustive Search")
    offline_gain = geomean_improvement(results, "Offline Exhaustive Search")
    summary = (
        f"geomean improvement: offline {offline_gain:.1%}, "
        f"dynamic {dynamic_gain:.1%}, online {online_gain:.1%} "
        f"(paper: dynamic ~12%, ~5% above online)"
    )
    save_artifact(
        "fig14_realistic_speedup", grid + "\n\n" + overheads + "\n\n" + summary
    )

    # Everyone improves under dynamic throttling.
    for result in results:
        assert result.speedup("Dynamic Throttling") > 1.0, result.program_name

    # Streamcluster benefits the most (it is the most memory-bound of
    # the trio), and the geomean improvement is solidly positive.
    assert by_name["SC_d128"].speedup("Dynamic Throttling") == max(
        r.speedup("Dynamic Throttling") for r in results
    )
    assert dynamic_gain > 0.05

    # Dynamic ~ offline (within 3 points), and above online on average.
    for result in results:
        assert result.speedup("Dynamic Throttling") == pytest.approx(
            result.speedup("Offline Exhaustive Search"), abs=0.03
        ), result.program_name
    assert dynamic_gain > online_gain

    # Monitoring cost: dynamic far below online for the big workloads.
    for name in ("SC_d128", "SIFT"):
        dynamic_share = by_name[name].outcome("Dynamic Throttling").probe_fraction
        online_share = by_name[name].outcome(
            "Online Exhaustive Search"
        ).probe_fraction
        assert dynamic_share < online_share, name

    # Selected MTLs match Section VI-B's analysis.
    assert by_name["dft"].outcome("Dynamic Throttling").selected_mtl == 1
    assert by_name["SC_d128"].outcome("Dynamic Throttling").selected_mtl == 2
