"""Known-good: stream importing memory, the package's own direction
between the two tied layers."""
from repro.memory.equilibrium import MemoryDemand

__all__ = ["MemoryDemand"]
