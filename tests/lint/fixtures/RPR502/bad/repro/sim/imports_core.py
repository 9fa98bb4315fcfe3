"""Known-bad: the simulator reaching up for the policy base class.

A function-level import is still an import: it makes running the
simulator depend on ``repro.core`` having loaded.
"""

__all__ = ["base_policy"]


def base_policy():
    from repro.core.plugin import ThrottlePolicyPlugin

    return ThrottlePolicyPlugin
