"""The run-time memory thread throttling mechanism (Section IV).

:class:`ProbingPolicy` is the loop of the paper's mechanism: it
monitors ``W`` memory/compute task pairs at the current MTL, detects
phase changes through the IdleBound criterion, runs a probe window of
``W`` pairs at each MTL its selection asks for, and commits an MTL.
:class:`DynamicThrottlingPolicy` is the paper's contribution on that
loop: its selection binary-searches the two candidate MTLs with the
analytical model, committing the winner (*D-MTL*) for the next phase.

The policy is driven purely by task-completion callbacks, just as the
real implementation is driven by ``gettimeofday()`` brackets around
tasks.  While a selection is in flight the policy *runs* the program
at each probe MTL for a window of ``W`` pairs — the monitoring
overhead is physically simulated, not modelled away — and those tasks
are flagged ``probe`` for overhead accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.model import AnalyticalModel
from repro.core.phase import PairSample, PhaseChangeDetector, WindowStats
from repro.core.plugin import PolicyParam, Selection, register_policy
from repro.core.selection import MtlSelector
from repro.errors import ConfigurationError
from repro.sim.events import TaskRecord
from repro.sim.scheduler import ThrottlePolicyPlugin

__all__ = ["DynamicThrottlingPolicy", "PairAssembler", "ProbingPolicy"]


@dataclass
class PairAssembler:
    """Joins memory and compute records into pair samples.

    A sample is valid only when its memory task ran under the MTL the
    policy is currently measuring; pairs dispatched across an MTL
    switch are dropped, mirroring the paper's exclusion of non-steady
    measurements.
    """

    pending_memory: Dict[Tuple[int, int], Tuple[float, int]] = field(
        default_factory=dict
    )

    def feed(self, record: TaskRecord) -> Optional[Tuple[PairSample, int]]:
        key = (record.phase_index, record.pair_index)
        if record.is_memory:
            self.pending_memory[key] = (record.duration, record.mtl_at_dispatch)
            return None
        entry = self.pending_memory.pop(key, None)
        if entry is None:
            return None
        t_m, mtl = entry
        return PairSample(t_m=t_m, t_c=record.duration), mtl


class ProbingPolicy(ThrottlePolicyPlugin):
    """Monitor, trigger, probe, commit: the loop of a selecting policy.

    A subclass supplies two steps, each returning the next MTL to run
    a probe window at, or ``None`` once it has called :meth:`_commit`
    (or chosen not to select):

    * :meth:`_start` — a monitoring window closed and triggered;
    * :meth:`_measured` — a probe window closed at the current MTL.

    Args:
        context_count: Schedulable contexts ``n`` (the analytical
            model's core count).
        window_pairs: ``W`` — pairs per monitoring (and probe) window.
        initial_mtl: Starting constraint; defaults to ``n``
            (unthrottled), so the first window measures ``T_mn``.
        name: Plugin name.
    """

    def __init__(
        self,
        context_count: int,
        window_pairs: int = 16,
        initial_mtl: Optional[int] = None,
        *,
        name: str,
    ) -> None:
        super().__init__(name)
        if context_count < 1:
            raise ConfigurationError(
                f"context_count must be >= 1, got {context_count}"
            )
        self._n = context_count
        self._model = AnalyticalModel(core_count=context_count)
        self._detector = PhaseChangeDetector(self._model, window_pairs=window_pairs)
        self._assembler = PairAssembler()
        self._window_pairs = window_pairs
        self._mtl = initial_mtl if initial_mtl is not None else context_count
        if not 1 <= self._mtl <= context_count:
            raise ConfigurationError(
                f"initial_mtl {self._mtl} outside [1, {context_count}]"
            )
        self._probing = False
        self._probe_window: List[PairSample] = []
        self._trigger = 0
        self.selections: List[Selection] = []

    @property
    def window_pairs(self) -> int:
        return self._window_pairs

    @property
    def windows_completed(self) -> int:
        return self._detector.windows_completed

    def current_mtl(self) -> int:
        return self._mtl

    def is_probing(self) -> bool:
        return self._probing

    def on_task_complete(self, record: TaskRecord, now: float) -> None:
        joined = self._assembler.feed(record)
        if joined is None:
            return
        sample, sample_mtl = joined
        if sample_mtl != self._mtl:
            return  # pair straddled an MTL switch; not a steady sample
        if self._probing:
            self._probe(sample, now)
        else:
            self._monitor(sample, now)

    def _monitor(self, sample: PairSample, now: float) -> None:
        window = self._detector.observe(sample)
        if window is None:
            return
        self.on_window_close(now)
        if not self._triggers(window):
            return
        self.on_phase_change(now)
        self._trigger = window.idle_bound
        self._next(self._start(window, now))

    def _probe(self, sample: PairSample, now: float) -> None:
        window = self._probe_window
        window.append(sample)
        if len(window) < self._window_pairs:
            return
        t_m = sum(s.t_m for s in window) / len(window)
        t_c = sum(s.t_c for s in window) / len(window)
        window.clear()
        self.on_window_close(now)
        self._next(self._measured(t_m, t_c, now))

    def _next(self, probe_mtl: Optional[int]) -> None:
        self._probing = probe_mtl is not None
        if probe_mtl is not None:
            self._mtl = probe_mtl

    def _commit(
        self,
        now: float,
        candidates: Dict[int, float],
        measured: Dict[int, Tuple[float, float]],
        selected: int,
        t_m: float,
        t_c: float,
    ) -> None:
        """Record the selection and switch to ``selected``, whose
        expected window means are ``(t_m, t_c)``."""
        self.selections.append(
            Selection(now, self._trigger, candidates, measured, selected)
        )
        self.on_selection(now, selected)
        self._mtl = selected
        # The reference IdleBound the monitor compares against must be
        # the bound at the *selected* MTL, else the very next window
        # would re-trigger.  (The detector's window is empty here: it
        # closed at the trigger and is not fed while probing.)
        self._detector.set_reference(self._model.idle_bound(t_m, t_c))

    # -- the steps a selecting policy supplies -------------------------

    def _triggers(self, window: WindowStats) -> bool:
        """Whether a closed monitoring window starts a selection: the
        paper's IdleBound phase-change test."""
        return window.phase_changed

    def _start(self, window: WindowStats, now: float) -> Optional[int]:
        raise NotImplementedError

    def _measured(self, t_m: float, t_c: float, now: float) -> Optional[int]:
        raise NotImplementedError


class DynamicThrottlingPolicy(ProbingPolicy):
    """The paper's dynamic memory thread throttling mechanism.

    Args:
        context_count: Schedulable contexts ``n``.
        window_pairs: ``W`` — pairs monitored per estimation window
            (the paper sweeps 4..24 and finds 16 adequate for its
            larger workloads, 8 for dft; Figure 15).
        initial_mtl: Starting constraint; defaults to ``n``.
        name: Plugin name (overridden by subclasses).
    """

    def __init__(
        self,
        context_count: int,
        window_pairs: int = 16,
        initial_mtl: Optional[int] = None,
        *,
        name: str = "dynamic-throttling",
    ) -> None:
        super().__init__(context_count, window_pairs, initial_mtl, name=name)
        self._selector: Optional[MtlSelector] = None

    def _start(self, window: WindowStats, now: float) -> Optional[int]:
        # Seed the search with the window just measured at the current
        # MTL (no wasted re-measurement).
        self._selector = MtlSelector(self._model)
        return self._measured(window.t_m, window.t_c, now)

    def _measured(self, t_m: float, t_c: float, now: float) -> Optional[int]:
        selector = self._selector
        assert selector is not None
        selector.provide(self._mtl, t_m, t_c)
        next_probe = selector.next_probe()
        if next_probe is None:
            decision = selector.decision()
            candidates = {decision.mtl_no_idle: decision.busy_metric}
            if decision.mtl_idle is not None:
                candidates[decision.mtl_idle] = decision.idle_metric
            selected = decision.selected_mtl
            self._commit(
                now, candidates, decision.measurements, selected,
                *decision.measurements[selected],
            )
        return next_probe


def _build_dynamic(context_count: int, **params: object) -> DynamicThrottlingPolicy:
    return DynamicThrottlingPolicy(context_count, **params)  # type: ignore[arg-type]


register_policy(
    "dynamic",
    _build_dynamic,
    summary=(
        "The paper's D-MTL: IdleBound phase detection plus "
        "model-guided binary search over candidate MTLs"
    ),
    source="MICRO 2010 §IV (D-MTL)",
    params=(
        PolicyParam("window_pairs", "int", "16", "pairs per estimation window"),
        PolicyParam("initial_mtl", "int", "n", "starting constraint"),
    ),
)
