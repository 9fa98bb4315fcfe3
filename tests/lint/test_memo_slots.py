"""One memo-slot predicate scopes RPR202 and RPR904 alike.

:func:`~repro.lint.rules.memosafety.is_memo_key_slot` decides which
``__slots__`` fields feed a memo signature.  The reassignment rule
(RPR202) and the mutation-after-freeze rule (RPR904) both import it, so
they must protect exactly the same slots.
"""

import pytest

from repro.lint import LintEngine, build_rules
from repro.lint.rules.memosafety import is_memo_key_slot

#: A slot reassigned outside ``__init__`` (RPR202's pattern).
REASSIGNED = '''\
__all__ = []


class Running:
    __slots__ = ("{slot}",)

    def __init__(self, value):
        self.{slot} = value

    def rebind(self, value):
        self.{slot} = value
'''

#: A list captured into a slot, then mutated (RPR904's pattern).
CAPTURED = '''\
__all__ = []


class Table:
    __slots__ = ("{slot}",)

    def __init__(self, parts):
        self.{slot} = parts
        parts.append("late")
'''


def findings(rule_id, root, source):
    path = root / "repro" / "core" / "slots.py"
    path.parent.mkdir(parents=True)
    path.write_text(source)
    engine = LintEngine(
        rules=build_rules(only=[rule_id]), enabled={rule_id}, root=root
    )
    return engine.run([root]).findings


@pytest.mark.parametrize("name, expected", [
    ("_sig_work", True),
    ("_sig_overhead", True),
    ("demand", True),
    ("total_units", True),
    ("remaining_units", False),
    ("_cohort_key", False),
])
def test_memo_key_slot_predicate(name, expected):
    assert is_memo_key_slot(name) is expected


@pytest.mark.parametrize("slot", ["_sig_parts", "demand", "_cohort_parts", "count"])
def test_reassignment_and_capture_rules_agree(tmp_path, slot):
    reassigned = findings("RPR202", tmp_path / "a", REASSIGNED.format(slot=slot))
    mutated = findings("RPR904", tmp_path / "b", CAPTURED.format(slot=slot))
    assert bool(reassigned) is is_memo_key_slot(slot)
    assert bool(mutated) is is_memo_key_slot(slot)
