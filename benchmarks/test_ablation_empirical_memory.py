"""Ablation D: closed-form vs microarchitecturally sampled memory.

The headline experiments run on the calibrated closed-form law
``L(c) = T_ml + c*T_ql``.  This ablation swaps in the
:class:`~repro.memory.empirical.EmpiricalContentionModel`, whose
latency table is *sampled from the bank-level FR-FCFS DRAM simulator*
(no closed form anywhere), and re-runs the mechanism end to end.

Asserted: the decisions and the gains survive the swap — the dynamic
throttler picks the same D-MTL family and still beats the conventional
schedule — demonstrating that the reproduction's conclusions are not
an artifact of assuming the very law the paper's model is built on.
"""

import pytest

from _helpers import run_once, save_artifact
from repro.analysis import format_speedup, render_table
from repro.core import DynamicThrottlingPolicy
from repro.memory.empirical import EmpiricalContentionModel
from repro.sim import Simulator, conventional_policy, i7_860
from repro.workloads import streamcluster, synthetic_from_ratio

RATIOS = [0.2, 0.5, 1.5]


def regenerate():
    empirical = EmpiricalContentionModel(
        max_concurrency=8, requests_per_stream=512, channels_measured=(1,)
    )
    machines = {
        "closed-form": i7_860(),
        "empirical (bank-level sampled)": i7_860(contention=empirical),
    }
    out = {}
    for label, machine in machines.items():
        out[label] = {}
        programs = [synthetic_from_ratio(r, pairs=96) for r in RATIOS]
        programs.append(streamcluster())
        for program in programs:
            conventional = Simulator(machine).run(
                program, conventional_policy(machine.context_count)
            )
            policy = DynamicThrottlingPolicy(
                context_count=machine.context_count
            )
            throttled = Simulator(machine).run(program, policy)
            out[label][program.name] = {
                "speedup": conventional.makespan / throttled.makespan,
                "mtl": throttled.dominant_mtl(),
            }
    return out


@pytest.mark.benchmark(group="ablation-empirical")
def test_ablation_empirical_memory(benchmark):
    outcomes = run_once(benchmark, regenerate)

    workloads = list(next(iter(outcomes.values())))
    rows = []
    for name in workloads:
        row = [name]
        for label in outcomes:
            o = outcomes[label][name]
            row.append(f"{format_speedup(o['speedup'])} ({o['mtl']})")
        rows.append(row)
    save_artifact(
        "ablation_empirical_memory",
        render_table(["Workload"] + list(outcomes), rows),
    )

    closed = outcomes["closed-form"]
    empirical = outcomes["empirical (bank-level sampled)"]
    for name in workloads:
        # The mechanism keeps working on sampled physics.
        assert empirical[name]["speedup"] > 1.0, name
        # And lands on the same throttle (exact D-MTL equality for the
        # synthetic points; SC sits near a region boundary, so allow
        # one step).
        assert abs(empirical[name]["mtl"] - closed[name]["mtl"]) <= 1, name
