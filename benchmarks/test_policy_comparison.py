"""Cross-policy comparison: every registered policy, one registry.

The plugin refactor's proof of life: the whole throttling-policy
registry — ported paper policies and the three extensions alike — runs
through one declarative grid on the paper's evaluation workloads (the
Figure 14 realistic trio plus one Figure 13 synthetic point per S-MTL
region), and every spec comes from
:func:`repro.runtime.experiment.all_policy_specs` rather than
hand-written imports.  The one tuned knob: ``activation-budget``'s
budget drops to 2 dispatches/window — its default (twice the fair
share) never binds on symmetric workloads, and an inert policy
demonstrates nothing.  Findings asserted:

* the grid runs clean — no degraded policies, all eight outcomes
  present for every workload;
* the registry's ``conventional`` entry reproduces the baseline
  bit-identically (speedup exactly 1.0 everywhere);
* ``dynamic`` improves every realistic workload (the Figure 14
  headline), ``adaptive-window`` tracks it there and wins on geomean
  (growing windows probe less);
* the extensions hold their design goals — ``mise`` and ``qos``
  improve every realistic workload, and the binding activation budget
  improves the most memory-bound one (streamcluster) by rationing
  who may issue memory work;
* no policy collapses: every speedup stays above 0.7 even on the
  adversarial ratio-3 synthetic point.
"""

import pytest

from _helpers import bench_executor, run_once, save_artifact
from repro.analysis import format_comparison, geometric_mean, render_policy_matrix
from repro.core import policy_names
from repro.runtime import all_policy_specs, compare_policies
from repro.units import mebibytes

#: Shared monitoring window so every windowed policy sees the same W.
WINDOW_PAIRS = 16

#: Activation budget (memory dispatches per context per window); the
#: fair share here is WINDOW_PAIRS / 4 = 4, and 2 is the largest value
#: that actually blacklists on these symmetric workloads.
BUDGET = 2

I7_LLC = {"capacity_bytes": mebibytes(8), "sharers": 4}


def synthetic(ratio: float) -> dict:
    """One fig13 synthetic point: cache-fitting 1 MB footprint."""
    return {
        "kind": "synthetic",
        "ratio": ratio,
        "footprint_bytes": mebibytes(1),
        "pairs": 48,
        "llc": I7_LLC,
    }


#: Label -> workload spec: the fig14 realistic trio plus one fig13
#: synthetic ratio per S-MTL region (1, 2, and 3).
WORKLOADS = [
    ("dft", {"kind": "registry", "name": "dft"}),
    ("SC_d128", {"kind": "registry", "name": "SC_d128"}),
    ("SIFT", {"kind": "registry", "name": "SIFT"}),
    ("syn_r0.20", synthetic(0.2)),
    ("syn_r1.00", synthetic(1.0)),
    ("syn_r3.00", synthetic(3.0)),
]

REALISTIC = ("dft", "SC_d128", "SIFT")


def comparison_specs():
    """The registry-wide grid, with the activation budget made binding."""
    specs = dict(all_policy_specs(window_pairs=WINDOW_PAIRS))
    specs["activation-budget"] = {
        **specs["activation-budget"],
        "budget": BUDGET,
    }
    return specs


def regenerate_comparison():
    specs = comparison_specs()
    executor = bench_executor()
    return {
        label: compare_policies(workload, specs, executor=executor)
        for label, workload in WORKLOADS
    }


@pytest.mark.benchmark(group="policy_comparison")
def test_policy_comparison_matrix(benchmark):
    results = run_once(benchmark, regenerate_comparison)
    labels = [label for label, _ in WORKLOADS]
    policies = policy_names()
    speedups = {
        label: {name: results[label].speedup(name) for name in policies}
        for label in labels
    }

    matrix = render_policy_matrix(policies, labels, speedups)
    details = "\n\n".join(format_comparison(results[label]) for label in labels)
    save_artifact("policy_comparison", matrix + "\n\n" + details)

    # The grid ran clean: all eight registered policies produced an
    # outcome on every workload, straight from the registry.
    assert len(policies) == 8
    for label in labels:
        assert results[label].failures == ()
        assert {o.policy_name for o in results[label].outcomes} == set(policies)

    # The registry's conventional entry IS the baseline, bit-identical.
    for label in labels:
        assert speedups[label]["conventional"] == 1.0, label

    # Figure 14 headline through the plugin path: dynamic improves
    # every realistic workload and adaptive-window tracks it there.
    for label in REALISTIC:
        assert speedups[label]["dynamic"] > 1.0, label
        assert speedups[label]["adaptive-window"] == pytest.approx(
            speedups[label]["dynamic"], abs=0.03
        ), label

    # Growing windows probe less: adaptive-window wins overall.
    def geomean(name):
        return geometric_mean([speedups[label][name] for label in labels])

    assert geomean("adaptive-window") >= geomean("dynamic")

    # Extensions hold their design goals.
    for label in REALISTIC:
        assert speedups[label]["mise"] > 1.0, label
        assert speedups[label]["qos"] > 1.0, label
    assert speedups["SC_d128"]["activation-budget"] > 1.05

    # No policy collapses anywhere.
    for label in labels:
        for name in policies:
            assert speedups[label][name] > 0.7, (label, name)
