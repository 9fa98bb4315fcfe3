"""Known-good: memory and stream share a rank, so either may import
the other.  The package builds stream on memory (a task carries a
memory demand); a project may layer them the other way round."""
from repro.stream.task import Task

__all__ = ["Task"]
