"""repro — reproduction of *Memory Latency Reduction via Thread
Throttling* (Cheng, Lin, Li, Yang; MICRO 2010).

The library decomposes into the paper's contribution and the
substrates it runs on:

* :mod:`repro.core` — the analytical model, phase detection, MTL
  selection, the dynamic throttling policy, and the baselines;
* :mod:`repro.sim` — a processor-sharing multi-core machine simulator
  standing in for the paper's Intel i7-860 testbed, with the policy
  base class and the static policies;
* :mod:`repro.memory` — contention models, an LLC capacity model, and
  a bank-level DRAM validator;
* :mod:`repro.stream` — the gather-compute-scatter task model;
* :mod:`repro.workloads` — the paper's synthetic sweep, dft,
  streamcluster, and SIFT as calibrated trace-driven programs;
* :mod:`repro.runtime` / :mod:`repro.analysis` — measurement
  protocols, experiment harnesses, and reporting.

Quickstart::

    from repro import (
        DynamicThrottlingPolicy, conventional_policy, i7_860, simulate,
    )
    from repro.workloads import streamcluster

    program = streamcluster()                # the PARSEC native input
    machine = i7_860()                       # 4 cores, 1 DIMM
    base = simulate(program, conventional_policy(4), machine)
    fast = simulate(program, DynamicThrottlingPolicy(4), machine)
    print(f"speedup {base.makespan / fast.makespan:.3f}x")
"""

from repro.core import (
    AnalyticalModel,
    DynamicThrottlingPolicy,
    MtlDecision,
    MtlSelector,
    OnlineExhaustivePolicy,
    PhaseChangeDetector,
    offline_exhaustive_search,
    predict_speedup_curve,
)
from repro.sim import (
    FixedMtlPolicy,
    GaussianNoise,
    Machine,
    SimulationResult,
    Simulator,
    ZeroNoise,
    conventional_policy,
    i7_860,
    simulate,
)
from repro.stream import StreamProgram, TaskGraph, TaskPair

__version__ = "1.0.0"

__all__ = [
    "AnalyticalModel",
    "DynamicThrottlingPolicy",
    "FixedMtlPolicy",
    "GaussianNoise",
    "Machine",
    "MtlDecision",
    "MtlSelector",
    "OnlineExhaustivePolicy",
    "PhaseChangeDetector",
    "SimulationResult",
    "Simulator",
    "StreamProgram",
    "TaskGraph",
    "TaskPair",
    "ZeroNoise",
    "__version__",
    "conventional_policy",
    "i7_860",
    "offline_exhaustive_search",
    "predict_speedup_curve",
    "simulate",
]
