"""Memory-system façade used by the machine simulator.

Bundles a contention model, a channel count, and an LLC capacity model
behind the two queries the simulator needs:

* :meth:`MemorySystem.resolve` — given the demands of all currently
  running tasks, the effective concurrency and the per-request latency
  every one of them currently sees;
* :meth:`MemorySystem.miss_fraction` — the off-chip spill fraction of a
  compute task with a given footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.memory.cache import LastLevelCache
from repro.memory.contention import ContentionModel
from repro.memory.equilibrium import EquilibriumSolver, MemoryDemand

__all__ = ["MemorySystem"]


@dataclass(frozen=True)
class MemorySystem:
    """Off-chip memory system of one simulated machine.

    Attributes:
        contention: Per-request latency model.
        channels: Independent memory channels (1-DIMM = 1, 2-DIMM = 2
            in the paper's setups).
        cache: Optional LLC capacity model; when ``None``, every
            compute task is assumed miss-free (the stream-programming
            contract holds by construction).
    """

    contention: ContentionModel
    channels: int = 1
    cache: Optional[LastLevelCache] = None

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ConfigurationError(f"channels must be >= 1, got {self.channels}")
        # The equilibrium memo is a cache of a pure function of the
        # memory system, shared by every rate calculator (and so every
        # offline-search MTL run) bound to it: the dataclass is frozen,
        # so it is attached behind its back and excluded from
        # equality, repr, and pickles.
        object.__setattr__(
            self, "_solver", EquilibriumSolver(self.request_latency)
        )

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["_solver"]  # memo is a cache, never serialized
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        object.__setattr__(
            self, "_solver", EquilibriumSolver(self.request_latency)
        )

    def request_latency(self, concurrency: float) -> float:
        """Per-request latency at a given effective concurrency."""
        return self.contention.request_latency(concurrency, channels=self.channels)

    def equilibrium_cache_info(self) -> Dict[str, int]:
        """Counters of the shared solver (hits, misses, entries); feeds
        perfbench's cache-effectiveness counters without handing
        callers the solver itself."""
        return self._solver.cache_info()

    def resolve(
        self,
        demands: Sequence[MemoryDemand],
        key: Optional[bytes] = None,
    ) -> Tuple[float, float]:
        """Effective concurrency and request latency for running tasks.

        Solutions are memoized per instance (see
        :class:`~repro.memory.equilibrium.EquilibriumSolver`); pass a
        precomputed ``key`` (:func:`~repro.memory.equilibrium.demand_signature`)
        to skip rebuilding the memo key.

        Returns:
            ``(concurrency, latency)``.  With no memory-demanding task
            running the concurrency is 0 and the latency is the
            unloaded ``L(1)`` (what a newly arriving request would pay).
        """
        return self._solver.solve(demands, key=key)

    def miss_fraction(self, footprint_bytes: int) -> float:
        """Off-chip fraction of a compute task's accesses."""
        if self.cache is None:
            return 0.0
        return self.cache.miss_fraction(footprint_bytes)
