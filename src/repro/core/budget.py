"""Windowed per-context activation budgets with blacklisting.

BlockHammer-style throttlers bound how hard any one agent may drive
the memory system inside a time window: per-thread activation counters
accumulate, an agent crossing its budget is blacklisted for the rest
of the window, and the counters clear when the window rolls over.
:class:`ActivationBudgetPolicy` is that idiom on this simulator's
vocabulary:

* an *activation* is a memory-task dispatch, observed through the
  plugin :meth:`~repro.sim.scheduler.ThrottlePolicyPlugin.on_task_dispatch`
  hook;
* the *window* rolls over every ``window_pairs`` completed pairs;
* a blacklisted hardware context is vetoed from acquiring MTL tokens
  through :meth:`~repro.sim.scheduler.ThrottlePolicyPlugin.blocks_context`
  (it still runs compute work — Section III's "does not have to
  stall" semantics are preserved).

Unlike the MTL-centric policies this one throttles *who* may issue
memory work rather than *how many* may, so its MTL stays fixed; the
two compose (``mtl`` parameter).  At least one context is always left
unblacklisted — with every context vetoed and only memory work ready,
the scheduler would wedge.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.plugin import PolicyParam, register_policy
from repro.errors import ConfigurationError
from repro.sim.events import TaskRecord
from repro.sim.scheduler import ThrottlePolicyPlugin
from repro.stream.task import Task

__all__ = ["ActivationBudgetPolicy"]


class ActivationBudgetPolicy(ThrottlePolicyPlugin):
    """Per-context activation budgets enforced by blacklisting.

    Args:
        context_count: Schedulable contexts ``n``.
        window_pairs: Completed pairs per counting window.
        budget: Memory-task dispatches a context may make per window
            before being blacklisted; defaults to
            ``max(1, 2 * window_pairs // n)`` — twice the fair share.
        mtl: Fixed MTL in force alongside the blacklist (defaults to
            ``n``: all throttling happens via the budget).
    """

    def __init__(
        self,
        context_count: int,
        window_pairs: int = 16,
        budget: Optional[int] = None,
        mtl: Optional[int] = None,
    ) -> None:
        super().__init__("activation-budget")
        if context_count < 1:
            raise ConfigurationError(
                f"context_count must be >= 1, got {context_count}"
            )
        if window_pairs < 1:
            raise ConfigurationError(
                f"window_pairs must be >= 1, got {window_pairs}"
            )
        if budget is None:
            budget = max(1, 2 * window_pairs // context_count)
        if budget < 1:
            raise ConfigurationError(f"budget must be >= 1, got {budget}")
        self._n = context_count
        self._window_pairs = window_pairs
        self._budget = budget
        self._mtl = mtl if mtl is not None else context_count
        if not 1 <= self._mtl <= context_count:
            raise ConfigurationError(
                f"mtl {self._mtl} outside [1, {context_count}]"
            )
        self._counts: Dict[int, int] = {}
        self._blacklist: Set[int] = set()
        self._pairs_in_window = 0
        self.stats.register("activations")
        self.stats.register("blacklist_events")

    @property
    def window_pairs(self) -> int:
        return self._window_pairs

    @property
    def budget(self) -> int:
        return self._budget

    @property
    def blacklisted(self) -> Set[int]:
        """Contexts currently vetoed (copy)."""
        return set(self._blacklist)

    def current_mtl(self) -> int:
        return self._mtl

    def blocks_context(self, context_id: int, now: float) -> bool:
        return context_id in self._blacklist

    def on_task_dispatch(self, task: Task, context_id: int, now: float) -> None:
        if not task.is_memory:
            return
        self.stats.add("activations")
        count = self._counts.get(context_id, 0) + 1
        self._counts[context_id] = count
        if (
            count > self._budget
            and context_id not in self._blacklist
            # Never blacklist the last free context: with only memory
            # work ready and every context vetoed, nothing could run.
            and len(self._blacklist) < self._n - 1
        ):
            self._blacklist.add(context_id)
            self.stats.add("blacklist_events")

    def on_task_complete(self, record: TaskRecord, now: float) -> None:
        if record.is_memory:
            return
        self._pairs_in_window += 1
        if self._pairs_in_window < self._window_pairs:
            return
        self._pairs_in_window = 0
        self._counts.clear()
        self._blacklist.clear()
        self.on_window_close(now)


def _build_activation_budget(
    context_count: int, **params: object
) -> ActivationBudgetPolicy:
    return ActivationBudgetPolicy(context_count, **params)  # type: ignore[arg-type]


register_policy(
    "activation-budget",
    _build_activation_budget,
    summary=(
        "Windowed per-context activation budgets: contexts exceeding "
        "their memory-dispatch budget are blacklisted until the "
        "window rolls over"
    ),
    source="BlockHammer/REGA windowed-counter idiom",
    params=(
        PolicyParam("window_pairs", "int", "16", "completed pairs per window"),
        PolicyParam(
            "budget", "int", "2*window_pairs/n", "dispatches per context per window"
        ),
        PolicyParam("mtl", "int", "n", "fixed MTL alongside the blacklist"),
    ),
)
