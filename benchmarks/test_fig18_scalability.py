"""Figure 18: scalability — 2-DIMM system, with and without SMT.

The paper doubles the memory bandwidth (two DDR3 channels) and then
stresses it again by enabling 2-way SMT (8 threads).  Published
findings asserted here:

* with 4 threads on 2 DIMMs the dynamic mechanism still helps
  (3.0%-9.1% in the paper) but less than on 1 DIMM — channel
  parallelism dilutes the interference;
* with SMT on (8 threads), contention returns and the speedups grow
  again (streamcluster: 13.3% in the paper), even though the
  analytical model is knowingly approximate when T_c varies;
* dynamic stays close to Offline Exhaustive Search in every
  configuration.
"""

import pytest

from _helpers import bench_executor, run_once, save_artifact
from repro.analysis import format_speedup, render_table
from repro.runtime import compare_policies, paper_policy_specs
from repro.workloads import realistic_workloads

CONFIGS = [
    ("1-DIMM / 4 threads", dict(channels=1, smt=1)),
    ("2-DIMM / 4 threads", dict(channels=2, smt=1)),
    ("2-DIMM / 8 SMT threads", dict(channels=2, smt=2)),
]

#: The two of the paper's three policies this figure plots.
POLICIES = ("Dynamic Throttling", "Offline Exhaustive Search")


def regenerate_fig18():
    executor = bench_executor()
    specs = paper_policy_specs()
    policies = {name: specs[name] for name in POLICIES}
    out = {}
    for label, kwargs in CONFIGS:
        out[label] = {}
        for name in realistic_workloads():
            comparison = compare_policies(
                {"kind": "registry", "name": name},
                policies,
                machine={"preset": "i7_860", **kwargs},
                executor=executor,
            )
            out[label][name] = {
                "dynamic": comparison.speedup("Dynamic Throttling"),
                "offline": comparison.speedup("Offline Exhaustive Search"),
                "mtl": comparison.outcome("Dynamic Throttling").selected_mtl,
            }
    return out


@pytest.mark.benchmark(group="fig18")
def test_fig18_scalability(benchmark):
    outcomes = run_once(benchmark, regenerate_fig18)

    rows = []
    for label, per_workload in outcomes.items():
        for name, o in per_workload.items():
            rows.append(
                [
                    label,
                    name,
                    format_speedup(o["offline"]),
                    f"{format_speedup(o['dynamic'])} ({o['mtl']})",
                ]
            )
    save_artifact(
        "fig18_scalability",
        render_table(
            ["Configuration", "Workload", "Offline", "Dynamic (MTL)"], rows
        ),
    )

    single = outcomes["1-DIMM / 4 threads"]
    dual = outcomes["2-DIMM / 4 threads"]
    smt = outcomes["2-DIMM / 8 SMT threads"]

    for name in single:
        # The second channel reduces what throttling can recover.
        assert dual[name]["dynamic"] < single[name]["dynamic"], name
        # But throttling still helps on 2 DIMMs (paper: 3.0-9.1%).
        assert dual[name]["dynamic"] > 1.0, name
        # Dynamic tracks offline in every configuration; under SMT the
        # model is knowingly approximate (T_c varies with core
        # sharing), so the tracking is a little looser — exactly the
        # paper's caveat in Section VI-E.
        for config, tolerance in ((single, 0.04), (dual, 0.04), (smt, 0.055)):
            assert config[name]["dynamic"] == pytest.approx(
                config[name]["offline"], abs=tolerance
            ), name

    # SMT re-creates contention: streamcluster's gain grows vs the
    # 4-thread 2-DIMM run (paper: 13.3%).
    assert smt["SC_d128"]["dynamic"] > dual["SC_d128"]["dynamic"]
