"""Machine presets.

A :class:`Machine` pairs a :class:`~repro.sim.cores.Processor` with a
:class:`~repro.memory.system.MemorySystem`.  :func:`i7_860` builds the
paper's testbed (Section V) in its three studied configurations:

========================  =============================================
``i7_860()``              4 threads, 1 DIMM / 1 channel (main results)
``i7_860(channels=2)``    4 threads, 2 DIMMs (Fig. 18 left)
``i7_860(channels=2, smt=2)``  8 SMT threads, 2 DIMMs (Fig. 18 right)
========================  =============================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.memory.cache import LastLevelCache
from repro.memory.contention import ContentionModel, nehalem_ddr3_contention
from repro.memory.system import MemorySystem
from repro.sim.cores import Processor
from repro.sim.engine import RateCalculator
from repro.units import mebibytes

__all__ = ["Machine", "i7_860"]


@dataclass(frozen=True)
class Machine:
    """A complete simulated machine.

    Each machine owns one :class:`~repro.sim.engine.RateCalculator`,
    and every :class:`~repro.sim.simulator.Simulator` on the machine
    uses it, so rate snapshots computed in one run serve the next.
    """

    name: str
    processor: Processor
    memory: MemorySystem

    def __post_init__(self) -> None:
        # The snapshot memo is a cache of a pure function of the
        # machine: the dataclass is frozen, so it is attached behind
        # its back and excluded from equality, repr, and pickles.
        object.__setattr__(
            self, "_rates", RateCalculator(self.processor, self.memory)
        )

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        del state["_rates"]  # memo is a cache, never serialized
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        object.__setattr__(
            self, "_rates", RateCalculator(self.processor, self.memory)
        )

    @property
    def rate_calculator(self) -> RateCalculator:
        """This machine's memoizing rate calculator."""
        return self._rates

    @property
    def context_count(self) -> int:
        return self.processor.context_count

    @property
    def core_count(self) -> int:
        return self.processor.core_count


def i7_860(
    channels: int = 1,
    smt: int = 1,
    contention: "ContentionModel | None" = None,
    llc_capacity_bytes: int = mebibytes(8),
) -> Machine:
    """The paper's Intel i7-860 (Nehalem) testbed.

    Args:
        channels: Populated DDR3 channels (1 = the 2 GB single-DIMM
            configuration, 2 = the dual-DIMM 17 GB/s configuration of
            the scalability study).
        smt: SMT ways (1 = disabled, 2 = the 8-thread configuration).
        contention: Override the calibrated DDR3-1066 contention model
            (used by the contention-model ablation).
        llc_capacity_bytes: Last-level cache size (8 MB on the i7-860;
            the paper footnotes a 12 MB Q9550 shows the same trends).
    """
    processor = Processor(core_count=4, smt_ways=smt)
    cache = LastLevelCache(
        capacity_bytes=llc_capacity_bytes, sharers=processor.core_count
    )
    memory = MemorySystem(
        contention=contention if contention is not None else nehalem_ddr3_contention(),
        channels=channels,
        cache=cache,
    )
    label = f"i7-860/{channels}ch" + (f"/smt{smt}" if smt > 1 else "")
    return Machine(name=label, processor=processor, memory=memory)
