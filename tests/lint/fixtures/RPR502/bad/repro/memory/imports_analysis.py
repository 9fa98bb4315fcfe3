"""Known-bad: the memory model borrowing a reporting helper."""
from repro.analysis.stats import geometric_mean

__all__ = ["mean_latency"]


def mean_latency(latencies):
    return geometric_mean(latencies)
