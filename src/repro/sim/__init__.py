"""Machine-simulator substrate.

A trace-driven, processor-sharing discrete-event simulator of a
multi-core machine executing a stream program under a scheduling
policy.  It substitutes for the paper's physical Intel i7-860 testbed:

* :mod:`repro.sim.machine` — machine presets (the i7-860 in its
  1-DIMM, 2-DIMM, and SMT configurations from Section V/VI-E);
* :mod:`repro.sim.cores` — cores and SMT hardware contexts;
* :mod:`repro.sim.engine` — the processor-sharing rate calculator that
  turns task demands plus memory contention into progress rates;
* :mod:`repro.sim.scheduler` — the work queue and the MTL token gate
  (the lock-and-counter of the paper's runtime), plus the policy base
  class every throttling policy subclasses and the static policies;
* :mod:`repro.sim.simulator` — the event loop tying it all together;
* :mod:`repro.sim.events` / :mod:`repro.sim.results` — execution
  records and derived statistics;
* :mod:`repro.sim.noise` — measurement/scheduling jitter;
* :mod:`repro.sim.gantt` — ASCII schedule rendering (Figures 4 and 5);
* :mod:`repro.sim.detailed` — request-level co-simulation with the
  bank-level DRAM controller (contention emerges, validation mode);
* :mod:`repro.sim.multiprogram` — co-scheduling of program mixes
  under one global MTL gate;
* :mod:`repro.sim.power7` — the POWER7-class machine of the paper's
  announced follow-up study.
"""

from repro.sim.detailed import DetailedSimulator
from repro.sim.events import MtlChange, TaskRecord
from repro.sim.machine import Machine, i7_860
from repro.sim.multiprogram import CoScheduleResult, co_schedule, merge_programs
from repro.sim.power7 import power7
from repro.sim.noise import GaussianNoise, NoiseModel, ZeroNoise
from repro.sim.results import SimulationResult
from repro.sim.scheduler import (
    FixedMtlPolicy,
    ThrottlePolicyPlugin,
    conventional_policy,
)
from repro.sim.simulator import Simulator, simulate

__all__ = [
    "DetailedSimulator",
    "FixedMtlPolicy",
    "GaussianNoise",
    "Machine",
    "MtlChange",
    "NoiseModel",
    "SimulationResult",
    "Simulator",
    "TaskRecord",
    "ThrottlePolicyPlugin",
    "ZeroNoise",
    "CoScheduleResult",
    "co_schedule",
    "conventional_policy",
    "merge_programs",
    "i7_860",
    "power7",
    "simulate",
]
