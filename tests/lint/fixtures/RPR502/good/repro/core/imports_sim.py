"""Known-good: policies build on the simulator's base class."""
from repro.sim.scheduler import ThrottlePolicyPlugin

__all__ = ["ThrottlePolicyPlugin"]
