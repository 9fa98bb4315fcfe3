"""Figure 17: MTL adaptation to program input sets.

Streamcluster's memory-to-compute ratio depends on the input array
dimensionality.  The paper runs six instances and shows the dynamic
mechanism selecting different MTLs per input: D-MTL=1 where all cores
are busy at MTL=1 (e.g. d32 at 24.59% <= 33%) and D-MTL=2 where
MTL=1 would idle cores (e.g. d36 at 54.13%), always tracking Offline
Exhaustive Search.
"""

import pytest

from _helpers import bench_executor, run_once, save_artifact
from repro.analysis import format_speedup, render_table
from repro.runtime import compare_policies, paper_policy_specs
from repro.workloads import STREAMCLUSTER_RATIOS

DIMENSIONS = sorted(STREAMCLUSTER_RATIOS, reverse=True)  # 128 .. 20

#: The two of the paper's three policies this figure plots.
POLICIES = ("Dynamic Throttling", "Offline Exhaustive Search")


def regenerate_fig17():
    executor = bench_executor()
    specs = paper_policy_specs()
    policies = {name: specs[name] for name in POLICIES}
    out = {}
    for dimension in DIMENSIONS:
        comparison = compare_policies(
            {"kind": "streamcluster", "dimension": dimension},
            policies,
            executor=executor,
        )
        offline = comparison.outcome("Offline Exhaustive Search")
        dynamic = comparison.outcome("Dynamic Throttling")
        out[dimension] = {
            "ratio": STREAMCLUSTER_RATIOS[dimension],
            "offline_mtl": offline.selected_mtl,
            "offline_speedup": offline.speedup,
            "dynamic_mtl": dynamic.selected_mtl,
            "dynamic_speedup": dynamic.speedup,
        }
    return out


@pytest.mark.benchmark(group="fig17")
def test_fig17_streamcluster_inputs(benchmark):
    outcomes = run_once(benchmark, regenerate_fig17)

    rows = [
        [
            f"SC_d{dim}",
            f"{o['ratio'] * 100:.2f}%",
            f"{format_speedup(o['offline_speedup'])} ({o['offline_mtl']})",
            f"{format_speedup(o['dynamic_speedup'])} ({o['dynamic_mtl']})",
        ]
        for dim, o in outcomes.items()
    ]
    save_artifact(
        "fig17_streamcluster_inputs",
        render_table(
            ["Instance", "T_m1/T_c", "Offline (MTL)", "Dynamic (MTL)"], rows
        ),
    )

    # Section VI-D2's worked examples: d32 -> D-MTL 1, d36 -> D-MTL 2.
    assert outcomes[32]["dynamic_mtl"] == 1
    assert outcomes[36]["dynamic_mtl"] == 2

    for dim, o in outcomes.items():
        # The IdleBound rule: ratio <= 1/3 selects MTL 1, above it the
        # selector moves to MTL 2 for every studied instance.
        expected = 1 if o["ratio"] <= 1 / 3 else 2
        assert o["dynamic_mtl"] == expected, dim
        # Dynamic tracks offline per instance.
        assert o["dynamic_speedup"] == pytest.approx(
            o["offline_speedup"], abs=0.03
        ), dim
        assert o["dynamic_speedup"] > 1.0, dim
