"""QoS throttling: bound slowdown, maximise throughput.

The QoS formulation of slowdown estimation inverts the fairness
objective: instead of equalising everyone's slowdown, hold a
designated application's slowdown under an operator-chosen bound and
give everything else as much throughput as that bound allows.

:class:`QosGuaranteePolicy` is :class:`~repro.core.mise.MiseFairnessPolicy`
(the probing loop plus the alone-probe slowdown fit) with one method
replaced, the selection rule: among the MTLs whose estimated
per-pair slowdown stays within ``target_slowdown`` it picks the
*largest* (most memory concurrency, hence most throughput for the
rest of the mix); when no MTL can honour the bound — the target is
infeasible for this phase — it degrades to the fairness choice, the
closest the mechanism can get.  At the homogeneous operating point
every pair shares the estimate, so bounding the common estimate
bounds the designated pair's.  Its selection records are MISE's: every
MTL's estimate as ``candidates``, the two windows as ``measured``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.mise import MiseFairnessPolicy
from repro.core.plugin import PolicyParam, register_policy
from repro.errors import ConfigurationError

__all__ = ["QosGuaranteePolicy"]


class QosGuaranteePolicy(MiseFairnessPolicy):
    """Hold estimated slowdown under a target, then maximise MTL.

    Args:
        context_count: Schedulable contexts ``n``.
        target_slowdown: The bound (>= 1); 1 demands alone-run
            performance and is only satisfiable at MTL = 1 on a
            contention-free machine.
        window_pairs: ``W`` — pairs per monitoring (and probe) window.
        initial_mtl: Starting constraint (defaults to ``n``).
    """

    def __init__(
        self,
        context_count: int,
        target_slowdown: float = 1.5,
        window_pairs: int = 16,
        initial_mtl: Optional[int] = None,
    ) -> None:
        if not target_slowdown >= 1.0:
            raise ConfigurationError(
                f"target_slowdown must be >= 1, got {target_slowdown}"
            )
        super().__init__(
            context_count,
            window_pairs=window_pairs,
            initial_mtl=initial_mtl,
            name="qos-guarantee",
        )
        self._target = target_slowdown
        self.stats.register("target_misses")

    @property
    def target_slowdown(self) -> float:
        return self._target

    def _select(self, estimates: Dict[int, float]) -> int:
        feasible = [k for k, s in estimates.items() if s <= self._target]
        if feasible:
            return max(feasible)
        # Infeasible phase: no MTL honours the bound; fall back to the
        # fairness choice (the smallest achievable slowdown).
        self.stats.add("target_misses")
        return super()._select(estimates)


def _build_qos(context_count: int, **params: object) -> QosGuaranteePolicy:
    return QosGuaranteePolicy(context_count, **params)  # type: ignore[arg-type]


register_policy(
    "qos",
    _build_qos,
    summary=(
        "Slowdown QoS: largest MTL whose estimated slowdown stays "
        "under target_slowdown; falls back to the fairness choice "
        "when the bound is infeasible"
    ),
    source="QoS slowdown control (arXiv:1508.03087)",
    params=(
        PolicyParam("target_slowdown", "float", "1.5", "slowdown bound (>= 1)"),
        PolicyParam("window_pairs", "int", "16", "pairs per window"),
        PolicyParam("initial_mtl", "int", "n", "starting constraint"),
    ),
)
