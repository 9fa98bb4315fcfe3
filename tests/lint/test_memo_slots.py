"""RPR202 protects exactly the fields a class declares in ``MEMO_KEY``.

One case per write shape the rule covers: a direct or augmented store
on the receiver, an in-place or aliased mutation, capture-then-mutate
(in a constructor), and a store in another module through a local
bound to the class's constructor.  Each is flagged for a declared
field and silent for an undeclared one, so a shape the rule stops
seeing, or a field it protects without a declaration, fails here.
"""

import pytest

from repro.lint import LintEngine, build_rules

CLASS = '''\
__all__ = ["Running"]


class Running:
    MEMO_KEY = ("key",)

    def __init__(self, value):
        self.key = value
        self.tracked = value
{method}
'''

#: Write shapes on the receiver, as a method of ``Running``.
RECEIVER_SHAPES = {
    "direct store": "    def rebind(self, value):\n        self.{field} = value\n",
    "augmented store": "    def bump(self):\n        self.{field} += 1\n",
    "in-place mutation": (
        "    def widen(self, value):\n        self.{field}.append(value)\n"
    ),
    "aliased store": (
        "    def poke(self, value):\n"
        "        alias = self\n"
        "        alias.{field} = value\n"
    ),
    "capture then mutate in the constructor": (
        "    def __post_init__(self, parts):\n"
        "        self.{field} = parts\n"
        "        parts.append('late')\n"
    ),
}

#: A store through a constructor-bound local, in another module.
OTHER_MODULE = '''\
from repro.sim.running import Running

__all__ = ["dispatch"]


def dispatch(value):
    rt = Running(value)
    rt.{field} = value
    return rt
'''


def lint(root, files):
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    engine = LintEngine(
        rules=build_rules(only=["RPR202"]), enabled={"RPR202"}, root=root
    )
    return engine.run([root]).findings


def running(method=""):
    return {"repro/sim/running.py": CLASS.format(method=method)}


@pytest.mark.parametrize("field, flagged", [("key", True), ("tracked", False)])
class TestEveryWriteShape:
    @pytest.mark.parametrize("shape", sorted(RECEIVER_SHAPES))
    def test_receiver_shape(self, tmp_path, shape, field, flagged):
        method = "\n" + RECEIVER_SHAPES[shape].format(field=field)
        findings = lint(tmp_path, running(method))
        assert len(findings) == int(flagged), [f.message for f in findings]
        if flagged:
            assert "Running.key" in findings[0].message

    def test_store_from_another_module(self, tmp_path, field, flagged):
        files = running()
        files["repro/sim/loop.py"] = OTHER_MODULE.format(field=field)
        findings = lint(tmp_path, files)
        assert [(f.path.rpartition("/")[2], f.line) for f in findings] == (
            [("loop.py", 8)] if flagged else []
        )


class TestConstructionAndRebuild:
    def test_constructor_stores_are_construction(self, tmp_path):
        assert lint(tmp_path, running()) == []

    def test_setstate_may_rebuild_in_place_but_not_reassign(self, tmp_path):
        method = (
            "\n    def __setstate__(self, state):\n"
            "        self.key.clear()\n"
            "        self.key = state\n"
        )
        findings = lint(tmp_path, running(method))
        assert [f.line for f in findings] == [13]


class TestScope:
    def test_tests_layer_is_not_checked(self, tmp_path):
        method = "\n" + RECEIVER_SHAPES["direct store"].format(field="key")
        files = {"tests/running.py": CLASS.format(method=method)}
        assert lint(tmp_path, files) == []

    def test_a_write_through_a_parameter_is_not_attributed(self, tmp_path):
        # The parameter's class is unknown to the per-file walk.
        files = running()
        files["repro/sim/loop.py"] = (
            '__all__ = ["reset"]\n\n\n'
            "def reset(rt, value):\n"
            "    rt.key = value\n"
        )
        assert lint(tmp_path, files) == []
