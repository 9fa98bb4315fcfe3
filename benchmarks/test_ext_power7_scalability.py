"""Extension: the POWER7 scalability study the paper announces.

The conclusion of the paper: "We are currently working on extending
the scalability study in this paper to an IBM POWER7 machine that has
substantially more hardware threads than the Intel i7-based systems."
That follow-up never appeared, so this benchmark runs it here:
streamcluster (the paper's most memory-bound realistic workload,
scaled so each parallel section keeps 32 threads busy for several
rounds) on a POWER7-class machine, sweeping SMT depth 1/2/4 on both a
fully populated (8-channel) and a bandwidth-constrained (2-channel)
memory system.

Findings this bench asserts, extrapolating Figure 18's reasoning:

* the mechanism's gain is governed by thread-to-channel pressure: on
  the 2-channel machine it grows monotonically with SMT depth and is
  large at SMT4 (32 threads onto 2 channels);
* on the fully populated 8-channel machine, low SMT depths leave the
  memory system over-provisioned and throttling has nothing to win —
  it can even lose slightly to barrier ramp effects the analytical
  model ignores (a negative result worth documenting); pressure, and
  with it the gain, returns at SMT4;
* every 2-channel configuration beats its 8-channel counterpart in
  *relative* gain, confirming the channel-dilution story at scale.
"""

import pytest

from _helpers import bench_executor, run_once, save_artifact
from repro.analysis import format_speedup, render_table
from repro.runtime.parallel import SweepPoint
from repro.sim.power7 import power7

SMT_DEPTHS = [1, 2, 4]
CHANNEL_CONFIGS = [8, 2]

def scaled_streamcluster_spec(threads: int):
    """Streamcluster with parallel sections sized for ``threads``.

    The i7 traces give each section 64 pairs for 4 threads (16 rounds);
    keeping ~16 rounds per section at higher thread counts preserves
    the compute structure while avoiding barrier-dominated sections.
    """
    return {
        "kind": "streamcluster",
        "rounds": 3,
        "pairs_per_round": 16 * threads,
    }


def regenerate():
    configs = []
    points = []
    for channels in CHANNEL_CONFIGS:
        for smt in SMT_DEPTHS:
            machine_spec = {"preset": "power7", "smt": smt, "channels": channels}
            n = power7(smt=smt, channels=channels).context_count
            workload = scaled_streamcluster_spec(n)
            configs.append((channels, smt, n))
            for policy in ({"kind": "conventional"}, {"kind": "dynamic"}):
                points.append(
                    SweepPoint(
                        workload=workload,
                        machine=machine_spec,
                        policy=policy,
                        label=f"power7/{channels}ch/smt{smt}/{policy['kind']}",
                    )
                )
    results = bench_executor().run(points)

    out = {}
    for index, (channels, smt, n) in enumerate(configs):
        conventional = results[2 * index]
        throttled = results[2 * index + 1]
        out.setdefault(channels, {})[smt] = {
            "speedup": conventional.makespan / throttled.makespan,
            "mtl": throttled.selected_mtl,
            "threads": n,
        }
    return out


@pytest.mark.benchmark(group="ext-power7")
def test_ext_power7_scalability(benchmark):
    outcomes = run_once(benchmark, regenerate)

    rows = []
    for channels in CHANNEL_CONFIGS:
        for smt in SMT_DEPTHS:
            o = outcomes[channels][smt]
            rows.append(
                [
                    f"{channels}-channel / SMT{smt} ({o['threads']} threads)",
                    format_speedup(o["speedup"]),
                    str(o["mtl"]),
                ]
            )
    save_artifact(
        "ext_power7_scalability",
        render_table(
            ["Configuration", "Dynamic speedup (streamcluster)", "D-MTL"],
            rows,
        ),
    )

    constrained = outcomes[2]
    balanced = outcomes[8]

    # Bandwidth-constrained machine: monotone growth with SMT depth,
    # large gains at 32 threads.
    assert (
        constrained[1]["speedup"]
        < constrained[2]["speedup"]
        < constrained[4]["speedup"]
    )
    assert constrained[4]["speedup"] > 1.25

    # Fully populated machine: over-provisioned at low SMT (no gain,
    # possibly a small documented loss), pressure returns at SMT4.
    assert balanced[1]["speedup"] < 1.01
    assert balanced[1]["speedup"] > 0.93  # the loss stays bounded
    assert balanced[4]["speedup"] > 1.05
    assert balanced[4]["speedup"] > balanced[1]["speedup"]

    # Channel dilution at every depth: fewer channels, more to win.
    for smt in SMT_DEPTHS:
        assert constrained[smt]["speedup"] > balanced[smt]["speedup"], smt
