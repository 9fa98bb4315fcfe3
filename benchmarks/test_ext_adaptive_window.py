"""Extension: self-sizing monitoring windows.

Figure 15 shows the best W differs per workload (8 for dft's 96
pairs, 16 for the larger programs) and the paper simply reports each
workload at its best setting.  The
:class:`~repro.core.adaptive.AdaptiveWindowThrottlingPolicy` extension
removes the hand-tuning: it bootstraps with a small window and grows
it as completed pairs accumulate, keeping monitoring under a fixed
budget.

Asserted: one untuned adaptive policy is at least as good as the fixed
W=16 paper configuration on *every* realistic workload — including
dft, where fixed W=16 visibly overpays (Figure 15) — and within one
point of each workload's best fixed W.
"""

import pytest

from _helpers import run_once, save_artifact
from repro.analysis import format_speedup, render_table
from repro.core import AdaptiveWindowThrottlingPolicy, DynamicThrottlingPolicy
from repro.sim import conventional_policy, i7_860, simulate
from repro.workloads import build_workload, realistic_workloads

FIXED_W = [4, 8, 16, 24]


def regenerate():
    machine = i7_860()
    out = {}
    for name in realistic_workloads():
        program = build_workload(name)
        baseline = simulate(
            program, conventional_policy(machine.context_count), machine
        ).makespan
        fixed = {}
        for w in FIXED_W:
            policy = DynamicThrottlingPolicy(
                context_count=machine.context_count, window_pairs=w
            )
            fixed[w] = baseline / simulate(program, policy, machine).makespan
        adaptive_policy = AdaptiveWindowThrottlingPolicy(
            context_count=machine.context_count
        )
        adaptive = baseline / simulate(program, adaptive_policy, machine).makespan
        out[name] = {
            "fixed": fixed,
            "adaptive": adaptive,
            "final_window": adaptive_policy.window_pairs,
        }
    return out


@pytest.mark.benchmark(group="ext-adaptive-w")
def test_ext_adaptive_window(benchmark):
    outcomes = run_once(benchmark, regenerate)

    rows = []
    for name, o in outcomes.items():
        rows.append(
            [name]
            + [format_speedup(o["fixed"][w]) for w in FIXED_W]
            + [format_speedup(o["adaptive"]), str(o["final_window"])]
        )
    save_artifact(
        "ext_adaptive_window",
        render_table(
            ["Workload"]
            + [f"W={w}" for w in FIXED_W]
            + ["adaptive", "final W"],
            rows,
        ),
    )

    for name, o in outcomes.items():
        # At least as good as the paper's W=16 everywhere.
        assert o["adaptive"] >= o["fixed"][16] - 1e-6, name
        # Within one point of the workload's best hand-tuned W.
        assert o["adaptive"] >= max(o["fixed"].values()) - 0.01, name

    # dft is the workload W=16 visibly overpays on; the adaptive
    # policy recovers the gap.
    dft = outcomes["dft"]
    assert dft["adaptive"] > dft["fixed"][16]
