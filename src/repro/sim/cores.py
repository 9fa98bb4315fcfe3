"""Cores and SMT hardware contexts.

The paper's machine is a quad-core i7-860 whose 2-way SMT is disabled
for the main experiments and enabled for the scalability study
(Section VI-E).  We model a processor as ``core_count`` physical cores,
each exposing ``smt_ways`` hardware contexts.  A context runs at most
one task; software threads are pinned one-per-context exactly as the
paper pins pthreads with affinity.

SMT sharing: when multiple contexts of one core simultaneously run
CPU-demanding tasks, they share the core's execution resources.  The
aggregate throughput of a 2-way-shared core exceeds 1.0 (that is SMT's
point) but each sibling runs slower than alone, so ``T_c`` stops being
a constant — the effect that degrades the paper's analytical model
under SMT.  Memory tasks spend their time stalled on prefetches and
consume negligible execution bandwidth, so they do not slow a sibling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError

__all__ = ["HardwareContext", "Processor"]


@dataclass(frozen=True)
class HardwareContext:
    """One SMT thread slot."""

    context_id: int
    core_id: int


@dataclass(frozen=True)
class Processor:
    """A multi-core processor with optional SMT.

    Attributes:
        core_count: Physical cores (``n`` in the paper's model — with
            SMT off, also the scheduler's thread count).
        smt_ways: Hardware contexts per core (1 = SMT off).
        smt_aggregate_throughput: Combined execution throughput of one
            core when all its contexts run CPU-bound work, relative to
            a single unshared context.  1.25 reflects the ~25% benefit
            commonly measured for Nehalem SMT.
    """

    core_count: int = 4
    smt_ways: int = 1
    smt_aggregate_throughput: float = 1.25

    def __post_init__(self) -> None:
        if self.core_count < 1:
            raise ConfigurationError(
                f"core_count must be >= 1, got {self.core_count}"
            )
        if self.smt_ways < 1:
            raise ConfigurationError(f"smt_ways must be >= 1, got {self.smt_ways}")
        if self.smt_aggregate_throughput < 1.0:
            raise ConfigurationError(
                "smt_aggregate_throughput must be >= 1.0, got "
                f"{self.smt_aggregate_throughput}"
            )

    @property
    def context_count(self) -> int:
        """Schedulable hardware contexts (software thread count)."""
        return self.core_count * self.smt_ways

    def contexts(self) -> List[HardwareContext]:
        """All contexts, grouped by core then SMT way."""
        return [
            HardwareContext(context_id=core * self.smt_ways + way, core_id=core)
            for core in range(self.core_count)
            for way in range(self.smt_ways)
        ]

    def cpu_rate(self, cpu_active_on_core: int) -> float:
        """Per-context execution rate given CPU-active siblings.

        With one CPU-active context the core is unshared (rate 1.0);
        with ``k > 1`` the aggregate throughput is divided equally.
        """
        if cpu_active_on_core < 0:
            raise ConfigurationError(
                f"cpu_active_on_core must be >= 0, got {cpu_active_on_core}"
            )
        if cpu_active_on_core <= 1:
            return 1.0
        return self.smt_aggregate_throughput / cpu_active_on_core
