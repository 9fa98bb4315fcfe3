"""Baseline scheduling policies (Section V of the paper).

The paper compares its mechanism against two baselines beyond the
interference-oblivious conventional schedule:

* **Offline Exhaustive Search** — the best *static* MTL found by
  running the whole program once per MTL offline; implemented as a
  driver in :mod:`repro.core.offline` since it is a meta-procedure,
  not an online policy.
* **Online Exhaustive Search** — a naive dynamic baseline implemented
  here: it watches the wall-clock time of ``W``-pair windows, triggers
  re-selection whenever a window's time moves more than a threshold
  (10% performs best in the paper) against the previous window, and
  then measures *every* MTL from 1 to n for a window each, keeping the
  fastest.  Because it keys off noisy wall-clock windows (scheduling
  jitter, load imbalance) rather than per-task steady-state times, it
  both pays ~n× the monitoring cost and sometimes mis-selects — the
  two deficits the paper's mechanism is designed to avoid.

Every policy here is a :class:`~repro.sim.scheduler.ThrottlePolicyPlugin`
and registers itself in the policy registry.  The static policies
(:class:`~repro.sim.scheduler.FixedMtlPolicy`,
:func:`~repro.sim.scheduler.conventional_policy`) live in the
simulator's scheduler; this module registers them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.plugin import PolicyParam, Selection, register_policy
from repro.errors import ConfigurationError
from repro.sim.events import TaskRecord
from repro.sim.scheduler import (
    FixedMtlPolicy,
    ThrottlePolicyPlugin,
    conventional_policy,
)

__all__ = ["OnlineExhaustivePolicy"]


class OnlineExhaustivePolicy(ThrottlePolicyPlugin):
    """The paper's naive online MTL searcher.

    Its windows count compute completions and time them by the wall
    clock, with no pair join and no straddle filter, so it keeps its
    own loop rather than a :class:`~repro.core.throttle.ProbingPolicy`.
    Each :class:`~repro.core.plugin.Selection` it records has no
    IdleBound trigger, every MTL's window time as ``candidates`` and
    nothing ``measured``.

    Args:
        context_count: Schedulable contexts ``n``.
        window_pairs: ``W`` — pairs per measured window.
        threshold: Relative change in window wall-clock time that
            triggers a re-selection (the paper finds 10% best).
        initial_mtl: Starting constraint (defaults to ``n``).
    """

    def __init__(
        self,
        context_count: int,
        window_pairs: int = 16,
        threshold: float = 0.10,
        initial_mtl: Optional[int] = None,
    ) -> None:
        super().__init__("online-exhaustive")
        if context_count < 1:
            raise ConfigurationError(
                f"context_count must be >= 1, got {context_count}"
            )
        if window_pairs < 1:
            raise ConfigurationError(
                f"window_pairs must be >= 1, got {window_pairs}"
            )
        if not threshold > 0:
            raise ConfigurationError(f"threshold must be positive, got {threshold}")
        self._n = context_count
        self._window_pairs = window_pairs
        self._threshold = threshold
        self._mtl = initial_mtl if initial_mtl is not None else context_count
        if not 1 <= self._mtl <= context_count:
            raise ConfigurationError(
                f"initial_mtl {self._mtl} outside [1, {context_count}]"
            )

        self._window_start: Optional[float] = None
        self._pairs_in_window = 0
        self._previous_window_time: Optional[float] = None
        self._bootstrapped = False

        self._probing: bool = False
        self._probe_queue: List[int] = []
        self._probe_times: Dict[int, float] = {}

        self.selections: List[Selection] = []

    @property
    def window_pairs(self) -> int:
        return self._window_pairs

    def current_mtl(self) -> int:
        return self._mtl

    def is_probing(self) -> bool:
        return self._probing

    def on_task_complete(self, record: TaskRecord, now: float) -> None:
        # Pair completion is marked by the compute half finishing.
        if record.is_memory:
            return
        if self._window_start is None:
            self._window_start = record.start
        self._pairs_in_window += 1
        if self._pairs_in_window < self._window_pairs:
            return

        window_time = now - self._window_start
        self._window_start = None
        self._pairs_in_window = 0
        self.on_window_close(now)

        if self._probing:
            self._probe_times[self._mtl] = window_time
            if self._probe_queue:
                self._mtl = self._probe_queue.pop(0)
            else:
                self._finish_selection(now)
        else:
            self._maybe_trigger(window_time, now)

    def _maybe_trigger(self, window_time: float, now: float) -> None:
        previous = self._previous_window_time
        self._previous_window_time = window_time
        if previous is None or previous <= 0:
            # The very first window bootstraps an initial selection
            # (the policy must leave MTL = n somehow even on a stable
            # workload); afterwards only the threshold triggers.
            if self._bootstrapped:
                return
            self._bootstrapped = True
        else:
            change = abs(window_time - previous) / previous
            if change <= self._threshold:
                return
        self.on_phase_change(now)
        # Exhaustive probe: a full window at every MTL from 1 to n.
        self._probing = True
        self._probe_times = {}
        self._probe_queue = list(range(1, self._n + 1))
        self._mtl = self._probe_queue.pop(0)

    def _finish_selection(self, now: float) -> None:
        selected = min(
            self._probe_times, key=lambda mtl: (self._probe_times[mtl], mtl)
        )
        self.selections.append(
            Selection(now, None, dict(self._probe_times), {}, selected)
        )
        self.on_selection(now, selected)
        self._mtl = selected
        self._probing = False
        self._previous_window_time = None  # restart the trigger baseline


def _build_conventional(context_count: int, **params: object) -> FixedMtlPolicy:
    return conventional_policy(context_count)


def _build_static(context_count: int, **params: object) -> FixedMtlPolicy:
    return FixedMtlPolicy(**params)  # type: ignore[arg-type]


def _build_online(context_count: int, **params: object) -> OnlineExhaustivePolicy:
    return OnlineExhaustivePolicy(context_count, **params)  # type: ignore[arg-type]


register_policy(
    "conventional",
    _build_conventional,
    summary="No throttling: MTL pinned at n (the paper's baseline schedule)",
    source="MICRO 2010 §V (baseline)",
    params=(),
)

register_policy(
    "static",
    _build_static,
    summary="A fixed MTL for the whole run (the paper's S-MTL points)",
    source="MICRO 2010 §V (S-MTL)",
    params=(
        PolicyParam("mtl", "int", None, "the fixed MTL (required)"),
    ),
)

register_policy(
    "online",
    _build_online,
    summary=(
        "Online exhaustive search: wall-clock windows trigger a probe "
        "of every MTL; the fastest window wins"
    ),
    source="MICRO 2010 §V (online exhaustive baseline)",
    params=(
        PolicyParam("window_pairs", "int", "16", "pairs per measured window"),
        PolicyParam("threshold", "float", "0.10", "relative re-trigger threshold"),
        PolicyParam("initial_mtl", "int", "n", "starting constraint"),
    ),
)
