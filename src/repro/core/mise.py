"""Slowdown-fairness throttling (the MISE mechanism on task pairs).

MISE's insight is that a thread's slowdown can be estimated online by
occasionally measuring its *alone* performance — giving it the memory
system essentially to itself — and comparing against what it gets
under sharing.  :class:`MiseFairnessPolicy` transplants that loop onto
this codebase's pair vocabulary, as the two steps of a
:class:`~repro.core.throttle.ProbingPolicy`:

1. **Monitor** ``W`` pairs at the current MTL through the same
   IdleBound :class:`~repro.core.phase.PhaseChangeDetector` the paper's
   mechanism uses, so re-estimation triggers only when the phase
   actually moved (the loop's own monitor).
2. **Probe the alone rate** (``_start``): run one window at MTL = 1
   (the analogue of MISE's highest-priority epochs — memory tasks
   execute without memory-side interference).  Probe tasks are
   flagged for overhead accounting exactly like the D-MTL selector's.
3. **Estimate and commit** (``_measured``): fit a
   :class:`~repro.core.slowdown.SlowdownProfile` through the two
   measured points and pick the MTL whose estimated per-pair slowdown
   is smallest (ties prefer the higher MTL — less throttling for the
   same fairness).  Because the operating point is homogeneous, the
   smallest common estimate is exactly the min-max-slowdown choice —
   the fairness objective.

The committed :class:`~repro.core.plugin.Selection` lists every MTL's
estimate as ``candidates`` and the trigger and probe windows as
``measured``.  The QoS variant (:mod:`repro.core.qos`) subclasses this
policy and only replaces :meth:`MiseFairnessPolicy._select`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.phase import WindowStats
from repro.core.plugin import PolicyParam, register_policy
from repro.core.slowdown import SlowdownProfile
from repro.core.throttle import ProbingPolicy

__all__ = ["MiseFairnessPolicy"]


class MiseFairnessPolicy(ProbingPolicy):
    """Pick the MTL minimising the estimated per-pair slowdown.

    At the homogeneous operating point every pair shares one estimate,
    so minimising it is exactly minimising the maximum slowdown — the
    fairness objective; ties break toward the higher MTL (less
    throttling for equal fairness).

    Args:
        context_count: Schedulable contexts ``n``.
        window_pairs: ``W`` — pairs per monitoring (and probe) window.
        initial_mtl: Starting constraint (defaults to ``n``).
        name: Plugin name (overridden by subclasses).
    """

    def __init__(
        self,
        context_count: int,
        window_pairs: int = 16,
        initial_mtl: Optional[int] = None,
        *,
        name: str = "mise-fairness",
    ) -> None:
        super().__init__(context_count, window_pairs, initial_mtl, name=name)
        self._trigger_point: Optional[Tuple[int, WindowStats]] = None
        self.stats.register("alone_probes")

    def _start(self, window: WindowStats, now: float) -> Optional[int]:
        if self._n == 1:
            return None  # MTL = 1 is the only choice; nothing to estimate
        # Alone-rate probe: one window at MTL = 1 (or at n when the
        # trigger itself was measured at 1 — any second concurrency
        # point pins the contention slope).
        self._trigger_point = (self._mtl, window)
        self.stats.add("alone_probes")
        return 1 if self._mtl != 1 else self._n

    def _measured(self, t_m: float, t_c: float, now: float) -> Optional[int]:
        assert self._trigger_point is not None
        k_a, trigger = self._trigger_point
        pooled_t_c = (trigger.t_c + t_c) / 2.0
        profile = SlowdownProfile.fit(
            context_count=self._n,
            k_a=k_a,
            t_m_a=trigger.t_m,
            k_b=self._mtl,
            t_m_b=t_m,
            t_c=pooled_t_c,
        )
        estimates = profile.slowdowns()
        selected = self._select(estimates)
        measured = {k_a: (trigger.t_m, trigger.t_c), self._mtl: (t_m, t_c)}
        self._commit(
            now, estimates, measured, selected, profile.t_m(selected), pooled_t_c
        )
        return None

    def _select(self, estimates: Dict[int, float]) -> int:
        return min(estimates, key=lambda k: (estimates[k], -k))


def _build_mise(context_count: int, **params: object) -> MiseFairnessPolicy:
    return MiseFairnessPolicy(context_count, **params)  # type: ignore[arg-type]


register_policy(
    "mise",
    _build_mise,
    summary=(
        "Slowdown fairness: probe the alone rate at MTL 1, fit a "
        "contention slope, pick the MTL with the smallest estimated "
        "per-pair slowdown"
    ),
    source="MISE (arXiv:1805.05926)",
    params=(
        PolicyParam("window_pairs", "int", "16", "pairs per window"),
        PolicyParam("initial_mtl", "int", "n", "starting constraint"),
    ),
)
