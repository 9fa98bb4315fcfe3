"""Known-bad: a wall-clock read above a bottom-of-file import.

Imports are bound before anything resolves, so ``time.time()`` is the
wall clock even though ``import time`` comes later in the file.
"""

__all__ = ["stamp_late"]


def stamp_late():
    return time.time()


import time  # noqa: E402 — deliberately below its first use
