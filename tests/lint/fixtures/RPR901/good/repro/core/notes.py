"""Known-good: a hook builds a dataclass from its argument.

``Note(record, [])`` fills the fields ``record`` and ``log``; the
``log`` that ``__post_init__`` appends to is the fresh list, not the
hook's ``record`` argument.
"""
from dataclasses import InitVar, dataclass

from repro.core.policyplug import ThrottlePolicyPlugin

__all__ = ["Note", "NotingPolicy"]


@dataclass
class Note:
    record: object
    log: InitVar[list]

    def __post_init__(self, log):
        log.append(1)


class NotingPolicy(ThrottlePolicyPlugin):
    def on_task_dispatch(self, simulator, record, context_id):
        Note(record, [])
