"""The paper's primary contribution: the model and the adaptive policies.

Every policy here subclasses
:class:`~repro.sim.scheduler.ThrottlePolicyPlugin`, which lives with
the simulator that drives it, as do the static policies
(:class:`~repro.sim.scheduler.FixedMtlPolicy`,
:func:`~repro.sim.scheduler.conventional_policy`); this package sits
above :mod:`repro.sim` and imports it freely.

* :mod:`repro.core.model` — the analytical performance model
  (Section IV-A): core-idle condition, execution time, and speedup at
  any MTL constraint.
* :mod:`repro.core.phase` — IdleBound-based coarse phase-change
  detection (Section IV-B).
* :mod:`repro.core.selection` — binary-search MTL selection over the
  two-candidate pruned space (Section IV-C).
* :mod:`repro.core.throttle` — :class:`ProbingPolicy`, the one
  monitor/trigger/probe/commit loop of the selecting policies, and
  the run-time dynamic throttling policy (D-MTL) assembling the three
  pieces on it.
* :mod:`repro.core.plugin` — the registration primitives and
  :class:`Selection`, the one record every selecting policy keeps per
  committed MTL.
* :mod:`repro.core.registry` — the name-keyed policy registry the
  CLI, suite, and experiment layers build policies through.
* :mod:`repro.core.policies` — the registry entries of the static
  policies and the Online Exhaustive Search baseline.
* :mod:`repro.core.slowdown` — the per-pair slowdown estimator the
  fairness/QoS policies share.
* :mod:`repro.core.mise` — MISE-style slowdown-fairness policy: the
  probing loop plus an alone-probe slowdown fit.
* :mod:`repro.core.qos` — slowdown-cap QoS policy: MISE with its own
  selection rule.
* :mod:`repro.core.budget` — windowed activation-budget throttler
  with per-window context blacklists.
* :mod:`repro.core.offline` — the Offline Exhaustive Search driver.
"""

from repro.core.adaptive import AdaptiveWindowThrottlingPolicy
from repro.core.budget import ActivationBudgetPolicy
from repro.core.mise import MiseFairnessPolicy
from repro.core.model import AnalyticalModel, MtlPrediction, predict_speedup_curve
from repro.core.offline import OfflineSearchOutcome, offline_exhaustive_search
from repro.core.phase import PairSample, PhaseChangeDetector, WindowStats
from repro.core.plugin import (
    PolicyEntry,
    PolicyParam,
    Selection,
    register_policy,
    registered_policies,
)
from repro.core.qos import QosGuaranteePolicy
from repro.core.regions import SMtlRegion, s_mtl_regions
from repro.core.registry import (
    build_policy,
    parse_policy_arg,
    policy_catalogue,
    policy_entry,
    policy_names,
)
from repro.core.policies import OnlineExhaustivePolicy
from repro.core.selection import MtlDecision, MtlSelector
from repro.core.slowdown import (
    PairLoad,
    SlowdownProfile,
    estimate_pair_slowdowns,
    linear_latency_factor,
)
from repro.core.throttle import DynamicThrottlingPolicy, PairAssembler, ProbingPolicy

__all__ = [
    "ActivationBudgetPolicy",
    "AdaptiveWindowThrottlingPolicy",
    "AnalyticalModel",
    "DynamicThrottlingPolicy",
    "MiseFairnessPolicy",
    "MtlDecision",
    "MtlPrediction",
    "MtlSelector",
    "OfflineSearchOutcome",
    "OnlineExhaustivePolicy",
    "PairAssembler",
    "PairLoad",
    "PairSample",
    "PhaseChangeDetector",
    "PolicyEntry",
    "PolicyParam",
    "ProbingPolicy",
    "QosGuaranteePolicy",
    "SMtlRegion",
    "Selection",
    "SlowdownProfile",
    "WindowStats",
    "build_policy",
    "estimate_pair_slowdowns",
    "linear_latency_factor",
    "offline_exhaustive_search",
    "parse_policy_arg",
    "policy_catalogue",
    "policy_entry",
    "policy_names",
    "predict_speedup_curve",
    "register_policy",
    "registered_policies",
    "s_mtl_regions",
]
