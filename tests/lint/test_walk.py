"""The one per-file walk: one call record per call, and its rules.

The graph, the effect analysis and the unit analysis all read the
calls one walk records.  The corpus-wide property pins "one record per
call the scope evaluates" over the repository and every fixture
corpus; the cases below pin the rule the walk follows wherever the
three separate walks it replaced used to disagree.
"""

import ast
import pathlib
import textwrap

from repro.lint import ProjectGraph, extract_summary, iter_python_files, layer_for_path
from repro.lint.dimflow.model import UnitTerm
from repro.lint.graph.summary import MODULE_SCOPE, is_type_checking_test
from tests.lint.test_fixtures import FIXTURES

ROOT = pathlib.Path(__file__).resolve().parents[2]


def summarize(source, display_path="repro/core/m.py"):
    tree = ast.parse(textwrap.dedent(source))
    layer = layer_for_path(pathlib.Path(display_path))
    return extract_summary(tree, display_path, layer)


def scope(summary, qualname):
    (function,) = [f for f in summary.functions if f.qualname == qualname]
    return function


def evaluated_calls(node):
    """The ``ast.Call`` nodes a scope evaluates itself: its own code,
    where a nested ``def`` contributes only its decorators and default
    values and an ``if TYPE_CHECKING:`` only its ``else`` branch."""
    calls = []
    stack = list(node.body)
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Call):
            calls.append(current)
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = current.args
            stack += current.decorator_list + args.defaults
            stack += [default for default in args.kw_defaults if default]
        elif isinstance(current, ast.If) and is_type_checking_test(current.test):
            stack += current.orelse
        else:
            stack += ast.iter_child_nodes(current)
    return calls


def scope_nodes(tree):
    """``(lineno, name)`` -> every ``def`` outside type-only code."""
    found = {}
    stack = [tree]
    while stack:
        current = stack.pop()
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[(current.lineno, current.name)] = current
        if isinstance(current, ast.If) and is_type_checking_test(current.test):
            stack += current.orelse
        else:
            stack += ast.iter_child_nodes(current)
    return found


class TestOneRecordPerCall:
    def test_every_scope_records_each_call_it_evaluates_once(self):
        files = iter_python_files([ROOT / "src", ROOT / "tests", FIXTURES])
        mismatches = []
        scopes = 0
        for path in files:
            try:
                tree = ast.parse(path.read_text(encoding="utf-8"))
            except (SyntaxError, ValueError):
                continue  # an RPR001 fixture
            display = path.relative_to(ROOT).as_posix()
            summary = extract_summary(tree, display, layer_for_path(path))
            nodes = scope_nodes(tree)
            assert len(summary.functions) == len(nodes) + 1, display
            for function in summary.functions:
                if function.qualname == MODULE_SCOPE:
                    node = tree
                else:
                    name = function.qualname.rpartition(".")[2]
                    node = nodes[(function.lineno, name)]
                expected = sorted(call.lineno for call in evaluated_calls(node))
                recorded = sorted(call.lineno for call in function.calls)
                if recorded != expected:
                    mismatches.append((display, function.qualname))
                scopes += 1
        assert not mismatches
        assert scopes > 2000

    def test_a_call_term_indexes_the_one_call_list(self):
        summary = summarize(
            """
            def f(size_bytes):
                return outer(inner(size_bytes))
            """
        )
        function = scope(summary, "f")
        outer = next(c for c in function.calls if c.dotted == "outer")
        term = outer.args[0].unit
        assert term.kind == "call"
        assert function.calls[term.index].dotted == "inner"
        assert function.calls[term.index].args[0].unit == UnitTerm(
            kind="param", name="size_bytes"
        )


class TestRulesWhereTheWalksDisagreed:
    def test_type_checking_bodies_are_skipped(self):
        # Rule: type-only code creates no call, binding, fact or import.
        summary = summarize(
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.sim.engine import Simulator
                probe(total_bytes + delay_seconds)

            def f(task, delay_seconds):
                if TYPE_CHECKING:
                    task.items.append(delay_seconds)
                    delay_seconds = convert(delay_seconds + 4096)
                return delay_seconds
            """
        )
        assert "Simulator" not in dict(summary.imports)
        module, function = scope(summary, MODULE_SCOPE), scope(summary, "f")
        assert module.calls == () and function.calls == ()
        assert module.units.checks == () and function.units.checks == ()
        assert function.effects.mutations == ()
        (returned,) = function.units.returns
        assert returned.term == UnitTerm(kind="param", name="delay_seconds")

    def test_augmented_assignment_keeps_class_and_unit_but_drops_alias(self):
        # Rule: after ``x += v`` the name keeps its receiver class and
        # its unit term, and is no longer an alias of a parameter.
        pools = summarize(
            """
            class Pool:
                def grow(self):
                    return self
            """,
            "repro/core/pools.py",
        )
        summary = summarize(
            """
            from repro.core.pools import Pool

            def f(task, size_bytes):
                pool = Pool()
                pool += make()
                pool.grow()
                total = size_bytes
                total += 1
                t = task
                t += more()
                t.demand = 1
                return total
            """
        )
        function = scope(summary, "f")
        grow = next(c for c in function.calls if c.dotted == "pool.grow")
        assert grow.receiver_class == "repro.core.pools.Pool"
        (returned,) = function.units.returns
        assert returned.term == UnitTerm(kind="param", name="size_bytes")
        assert function.effects.mutations == ()
        node = ProjectGraph([summary, pools]).node("repro.core.m::f")
        assert "repro.core.pools::Pool.grow" in [edge.to for edge in node.edges]

    def test_calls_inside_assignment_targets_are_recorded(self):
        # Rule: a call in a store target is a call like any other; the
        # effect analysis sees its receiver alias.
        summary = summarize(
            """
            def f(rows, m, size_bytes):
                rows[m.group("id")] = size_bytes
            """
        )
        function = scope(summary, "f")
        (call,) = function.calls
        assert call.dotted == "m.group"
        assert call.receiver.alias == ("m", "")
        assert [m.param for m in function.effects.mutations] == ["rows"]

    def test_nested_calls_carry_argument_units(self):
        # Rule: calls nested in comprehensions, lambdas, displays,
        # subscripts and call receivers are recorded, with the unit
        # term of every argument.
        summary = summarize(
            """
            def f(items, table, footprint_bytes):
                a = [wait(footprint_bytes) for _ in items]
                b = {"delay": wait(footprint_bytes)}
                c = sorted(items, key=lambda item: wait(footprint_bytes))
                d = table[wait(footprint_bytes)]
                e = wait(footprint_bytes).hex()
                return a, b, c, d, e
            """
        )
        waits = [c for c in scope(summary, "f").calls if c.dotted == "wait"]
        assert len(waits) == 5
        assert {call.args[0].unit for call in waits} == {
            UnitTerm(kind="param", name="footprint_bytes")
        }
