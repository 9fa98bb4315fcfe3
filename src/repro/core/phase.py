"""Phase-change detection (Section IV-B of the paper).

A naive detector would re-run MTL selection whenever the memory-to-
compute ratio moves, but "not each distinctive memory-to-compute ratio
maps to different target MTLs".  The paper's detector is deliberately
coarse: it monitors ``W`` memory/compute task pairs, computes the
*IdleBound* (the minimum MTL at which all cores stay busy, from the
analytical model), and signals a phase change only when the IdleBound
differs from the previous window's — i.e. only when the change could
actually alter the core-idle behaviour and hence the MTL decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.errors import ConfigurationError, MeasurementError
from repro.core.model import AnalyticalModel

__all__ = ["PairSample", "WindowStats", "PhaseChangeDetector"]


@dataclass(frozen=True)
class PairSample:
    """Measured times of one memory/compute task pair."""

    t_m: float
    t_c: float

    def __post_init__(self) -> None:
        if self.t_m <= 0:
            raise MeasurementError(f"t_m must be positive, got {self.t_m}")
        if self.t_c < 0:
            raise MeasurementError(f"t_c must be non-negative, got {self.t_c}")


@dataclass(frozen=True)
class WindowStats:
    """Summary of one completed monitoring window.

    Attributes:
        t_m: Mean memory-task time over the window.
        t_c: Mean compute-task time over the window.
        idle_bound: IdleBound implied by the window means.
        phase_changed: Whether the IdleBound differs from the previous
            window's (the paper's re-selection trigger).
    """

    t_m: float
    t_c: float
    idle_bound: int
    phase_changed: bool


class PhaseChangeDetector:
    """IdleBound-based coarse phase-change detection.

    Feed pair samples with :meth:`observe`; every ``window_pairs``
    samples a window closes and :meth:`observe` reports whether the
    window's IdleBound differs from the previous window's.  The first
    completed window always reports a change (there is no reference
    yet), which is what bootstraps the initial MTL selection.
    """

    def __init__(self, model: AnalyticalModel, window_pairs: int = 16) -> None:
        if window_pairs < 1:
            raise ConfigurationError(
                f"window_pairs must be >= 1, got {window_pairs}"
            )
        self._model = model
        self._window_pairs = window_pairs
        self._window: List[PairSample] = []
        self._reference_bound: Optional[int] = None
        self.windows_completed = 0

    @property
    def window_pairs(self) -> int:
        return self._window_pairs

    def observe(self, sample: PairSample) -> Optional[WindowStats]:
        """Add one pair sample.

        Returns:
            A :class:`WindowStats` when this sample completes a window
            (``phase_changed`` set when the IdleBound moved); ``None``
            while the window is still filling.
        """
        self._window.append(sample)
        if len(self._window) < self._window_pairs:
            return None

        t_m, t_c = self._window_means()
        self._window.clear()
        self.windows_completed += 1
        bound = self._model.idle_bound(t_m, t_c)
        changed = bound != self._reference_bound
        self._reference_bound = bound
        return WindowStats(
            t_m=t_m, t_c=t_c, idle_bound=bound, phase_changed=changed
        )

    def set_reference(self, idle_bound: int) -> None:
        """Pin the reference IdleBound (after an MTL selection settles,
        the selection's own measurement defines the new baseline)."""
        if not 1 <= idle_bound <= self._model.core_count:
            raise ConfigurationError(
                f"idle_bound {idle_bound} outside [1, {self._model.core_count}]"
            )
        self._reference_bound = idle_bound

    def grow_window(self, window_pairs: int) -> None:
        """Enlarge the window size mid-run (grow-only).

        Shrinking is refused because a partially filled window larger
        than the new size would close retroactively with stale
        semantics; the adaptive-window extension only ever grows.
        """
        if window_pairs < self._window_pairs:
            raise ConfigurationError(
                f"window can only grow (current {self._window_pairs}, "
                f"requested {window_pairs})"
            )
        self._window_pairs = window_pairs

    def _window_means(self) -> Tuple[float, float]:
        t_m = sum(s.t_m for s in self._window) / len(self._window)
        t_c = sum(s.t_c for s in self._window) / len(self._window)
        return t_m, t_c
