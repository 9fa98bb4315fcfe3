"""Ablation C: is the coarse IdleBound trigger actually necessary?

Section IV-B argues against the naive policy of re-selecting whenever
the memory-to-compute ratio moves: "not each distinctive memory-to-
compute ratio maps to different target MTLs", so a fine-grained
trigger "may lead to unnecessary triggering of MTL selection and hurt
overall performance".

This ablation runs a workload whose phases change *ratio* but not
*IdleBound* (ratios 0.45 / 0.60 / 0.50 / 0.55, all with IdleBound = 2,
so each re-selection probes the genuinely expensive MTL = 1 where
cores idle), comparing the shipped IdleBound-gated throttler against a
naive variant that re-selects on any >5% ratio movement.  Asserted:

* the IdleBound policy performs exactly one selection across all four
  phases (they share IdleBound = 2);
* the naive policy re-selects at (nearly) every phase change;
* the naive policy's extra probing costs real time: its makespan is
  worse, and its probe share is a multiple of the gated policy's.
"""

import pytest

from _helpers import run_once, save_artifact
from repro.analysis import format_percent, format_speedup, render_table
from repro.core import DynamicThrottlingPolicy
from repro.core.phase import WindowStats
from repro.sim import conventional_policy, i7_860, simulate
from repro.stream.program import StreamProgram, build_phase
from repro.workloads.base import REFERENCE_SOLO_LATENCY


class NaiveRatioTriggerPolicy(DynamicThrottlingPolicy):
    """The throttler with its coarse trigger replaced by a fine one.

    Re-selects whenever the window's T_m/T_c ratio moves more than
    ``ratio_threshold`` relative to the last selection's ratio, even
    when the IdleBound (and therefore the right MTL) is unchanged.
    """

    def __init__(self, context_count: int, window_pairs: int = 16,
                 ratio_threshold: float = 0.05) -> None:
        super().__init__(context_count=context_count, window_pairs=window_pairs)
        self._ratio_threshold = ratio_threshold
        self._reference_ratio = None

    @property
    def name(self) -> str:
        return "naive-ratio-trigger"

    def _triggers(self, window: WindowStats) -> bool:
        ratio = window.t_m / window.t_c if window.t_c > 0 else float("inf")
        reference = self._reference_ratio
        changed = (
            reference is None
            or abs(ratio - reference) / reference > self._ratio_threshold
        )
        if changed:
            self._reference_ratio = ratio
        return changed


def same_bound_program() -> StreamProgram:
    """Four phases, four ratios, one IdleBound (all in (1/3, 1])."""
    t_m1 = 8192 * REFERENCE_SOLO_LATENCY
    ratios = [0.45, 0.60, 0.50, 0.55]
    return StreamProgram(
        "ratio-wobble",
        [
            build_phase(f"p{i}", i, 96, 8192, t_m1 / r)
            for i, r in enumerate(ratios)
        ],
    )


def regenerate():
    program = same_bound_program()
    machine = i7_860()
    baseline = simulate(program, conventional_policy(4), machine).makespan

    gated_policy = DynamicThrottlingPolicy(context_count=4)
    gated = simulate(program, gated_policy, machine)

    naive_policy = NaiveRatioTriggerPolicy(context_count=4)
    naive = simulate(program, naive_policy, machine)

    return {
        "gated": {
            "speedup": baseline / gated.makespan,
            "selections": len(gated_policy.selections),
            "probe_share": gated.probe_task_time_fraction(),
        },
        "naive": {
            "speedup": baseline / naive.makespan,
            "selections": len(naive_policy.selections),
            "probe_share": naive.probe_task_time_fraction(),
        },
    }


@pytest.mark.benchmark(group="ablation-phase")
def test_ablation_idlebound_gating_pays_off(benchmark):
    outcomes = run_once(benchmark, regenerate)

    rows = [
        [
            label,
            format_speedup(o["speedup"]),
            str(o["selections"]),
            format_percent(o["probe_share"]),
        ]
        for label, o in outcomes.items()
    ]
    save_artifact(
        "ablation_phase_detection",
        render_table(
            ["Trigger", "Speedup", "Selections", "Probe share"], rows
        ),
    )

    gated, naive = outcomes["gated"], outcomes["naive"]
    # One selection suffices when the IdleBound never moves.
    assert gated["selections"] == 1
    # The naive trigger re-selects on the ratio wobble.
    assert naive["selections"] >= 3
    # And pays for it.
    assert naive["probe_share"] > 2 * gated["probe_share"]
    assert gated["speedup"] > naive["speedup"]
