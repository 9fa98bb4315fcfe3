"""Ablation B: does the mechanism depend on the exact contention law?

The machine model uses the paper's linear queueing law.  This ablation
re-runs the Figure 14 headline (streamcluster native, dynamic
throttling vs conventional) under three different contention models —
linear, super-linear power law (bank-conflict amplification), and pure
bandwidth partitioning — and checks that the *decision* the mechanism
makes is stable even when the latency physics change:

* under every model the throttler still improves streamcluster;
* the selected D-MTL stays in the small set {1, 2} the IdleBound
  analysis predicts for a 37% ratio workload;
* stronger contention (super-linear) yields a larger gain than
  weaker contention, i.e. the mechanism's benefit scales with the
  problem it is designed to remove.
"""

import pytest

from _helpers import run_once, save_artifact
from repro.analysis import format_speedup, render_table
from repro.core import DynamicThrottlingPolicy
from repro.memory.contention import (
    BandwidthShareModel,
    LinearContentionModel,
    PowerLawContentionModel,
)
from repro.sim import Simulator, conventional_policy, i7_860
from repro.units import NANOSECONDS
from repro.workloads import streamcluster

MODELS = {
    "linear (paper)": LinearContentionModel(46.3 * NANOSECONDS, 18 * NANOSECONDS),
    "power-law a=1.4": PowerLawContentionModel(
        46.3 * NANOSECONDS, 18 * NANOSECONDS, alpha=1.4
    ),
    "bandwidth-share": BandwidthShareModel(
        unloaded_latency=64.3 * NANOSECONDS, peak_bandwidth=2.2e9
    ),
}


def regenerate():
    out = {}
    for label, contention in MODELS.items():
        machine = i7_860(contention=contention)
        program = streamcluster()
        conventional = Simulator(machine).run(
            program, conventional_policy(machine.context_count)
        )
        policy = DynamicThrottlingPolicy(context_count=machine.context_count)
        throttled = Simulator(machine).run(program, policy)
        out[label] = {
            "speedup": conventional.makespan / throttled.makespan,
            "mtl": throttled.dominant_mtl(),
        }
    return out


@pytest.mark.benchmark(group="ablation-contention")
def test_ablation_contention_models(benchmark):
    outcomes = run_once(benchmark, regenerate)

    rows = [
        [label, format_speedup(o["speedup"]), str(o["mtl"])]
        for label, o in outcomes.items()
    ]
    save_artifact(
        "ablation_contention_models",
        render_table(["Contention model", "Dynamic speedup", "D-MTL"], rows),
    )

    for label, o in outcomes.items():
        assert o["speedup"] > 1.0, label
        assert o["mtl"] in (1, 2), label

    # More contention -> more to win back.
    assert (
        outcomes["power-law a=1.4"]["speedup"]
        > outcomes["linear (paper)"]["speedup"]
    )
