"""Known-good: binding shapes where positions do not name parameters.

A dataclass's positional arguments fill its fields, never the
parameters of ``__post_init__`` (those are ``InitVar`` values, bound by
keyword or by field order); and after a ``*args`` argument, which
parameter a positional argument reaches depends on ``len(args)``.
"""
from dataclasses import InitVar, dataclass

__all__ = ["Window", "pace", "open_window", "pace_all"]


@dataclass
class Window:
    size_bytes: int
    scale_seconds: InitVar[float]

    def __post_init__(self, scale_seconds):
        self.period_seconds = scale_seconds


def pace(count, gap_seconds=0.0):
    return count * gap_seconds


def open_window(buffer_bytes):
    return Window(buffer_bytes, 2.0)


def pace_all(counts, chunk_bytes):
    return pace(*counts, chunk_bytes)
