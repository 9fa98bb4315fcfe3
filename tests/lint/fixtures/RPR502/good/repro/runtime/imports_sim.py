"""Known-good: runtime sits above sim, so it may import sim."""
from repro.sim.engine import RateCalculator

__all__ = ["RateCalculator"]
