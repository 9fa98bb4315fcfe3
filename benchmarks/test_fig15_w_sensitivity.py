"""Figure 15: sensitivity of the dynamic mechanism to W.

W is the number of memory/compute task pairs monitored per estimation
window.  The paper sweeps W from 4 to 24 and finds:

* larger W estimates T_mk/T_c more accurately but costs more
  monitoring;
* dft — only 96 task pairs in total — degrades for W > 8, where the
  monitoring windows start to dominate the whole program ("the
  overhead of exhaustive search in dft is prohibitive");
* streamcluster and SIFT are accurately served by W = 16.
"""

import pytest

from _helpers import run_once, save_artifact
from repro.analysis import render_table
from repro.core import DynamicThrottlingPolicy
from repro.sim import conventional_policy, i7_860, simulate
from repro.workloads import build_workload, realistic_workloads

W_VALUES = [4, 8, 12, 16, 20, 24]


def regenerate_fig15():
    machine = i7_860()
    speedups = {}
    for name in realistic_workloads():
        program = build_workload(name)
        baseline = simulate(
            program, conventional_policy(machine.context_count), machine
        ).makespan
        speedups[name] = {}
        for w in W_VALUES:
            policy = DynamicThrottlingPolicy(
                context_count=machine.context_count, window_pairs=w
            )
            result = simulate(program, policy, machine)
            speedups[name][w] = baseline / result.makespan
    return speedups


@pytest.mark.benchmark(group="fig15")
def test_fig15_w_sensitivity(benchmark):
    speedups = run_once(benchmark, regenerate_fig15)

    rows = [
        [name] + [f"{speedups[name][w]:.3f}x" for w in W_VALUES]
        for name in speedups
    ]
    save_artifact(
        "fig15_w_sensitivity",
        render_table(["Workload"] + [f"W={w}" for w in W_VALUES], rows),
    )

    # dft (96 pairs): small W wins; beyond W=8 the windows eat the
    # program and the speedup falls off.
    dft = speedups["dft"]
    best_w_dft = max(W_VALUES, key=lambda w: dft[w])
    assert best_w_dft <= 8
    assert dft[24] < dft[best_w_dft]

    # The larger workloads tolerate W=16 well (the paper's setting).
    for name in ("SC_d128", "SIFT"):
        series = speedups[name]
        assert series[16] > 1.0
        # W=16 within one point of that workload's best.
        assert series[16] >= max(series.values()) - 0.01, name
