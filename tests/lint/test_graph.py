"""Graph-builder edge cases: the resolver must degrade, never guess.

The contract under test: syntax-error files, relative imports,
``TYPE_CHECKING``-only imports, star-imports, and dynamic dispatch all
either resolve correctly or degrade to an *unknown callee* — the
builder never crashes and never fabricates an edge it cannot justify.
"""

import ast
import json
import textwrap

from repro.lint import LintEngine, build_rules
from repro.lint.graph import ArgRef, ProjectGraph, extract_summary


def summarize(display_path, source, layer="root"):
    tree = ast.parse(textwrap.dedent(source))
    return extract_summary(tree, display_path, layer)


def build(*summaries):
    return ProjectGraph(list(summaries))


class TestResolution:
    def test_multi_hop_call_chain_resolves(self):
        graph = build(
            summarize(
                "src/repro/sim/engine.py",
                """
                from repro.flowutil import step

                def tick(now):
                    return step(now)
                """,
                layer="sim",
            ),
            summarize(
                "src/repro/flowutil.py",
                """
                from repro.clockutil import stamp

                def step(now):
                    return stamp() + now
                """,
            ),
            summarize(
                "src/repro/clockutil.py",
                """
                def stamp():
                    return 0.0
                """,
            ),
        )
        paths = graph.reachable_from(["repro.sim.engine::tick"])
        assert paths["repro.clockutil::stamp"] == (
            "repro.sim.engine::tick",
            "repro.flowutil::step",
            "repro.clockutil::stamp",
        )
        assert graph.render_path(paths["repro.clockutil::stamp"]) == (
            "repro.sim.engine.tick -> repro.flowutil.step"
            " -> repro.clockutil.stamp"
        )

    def test_relative_import_resolves_within_package(self):
        graph = build(
            summarize(
                "src/repro/sim/engine.py",
                """
                from .flow import step

                def tick(now):
                    return step(now)
                """,
                layer="sim",
            ),
            summarize(
                "src/repro/sim/flow.py",
                """
                def step(now):
                    return now
                """,
                layer="sim",
            ),
        )
        node = graph.node("repro.sim.engine::tick")
        assert [e.to for e in node.edges] == ["repro.sim.flow::step"]
        assert not node.unknown_callees

    def test_constructor_call_edges_into_init(self):
        graph = build(
            summarize(
                "src/repro/core/model.py",
                """
                class Model:
                    def __init__(self):
                        self.state = 0

                def make():
                    return Model()
                """,
                layer="core",
            )
        )
        node = graph.node("repro.core.model::make")
        assert [e.to for e in node.edges] == [
            "repro.core.model::Model.__init__"
        ]

    def test_method_resolution_walks_base_classes(self):
        graph = build(
            summarize(
                "src/repro/core/base.py",
                """
                class Base:
                    def run(self):
                        return 1

                class Child(Base):
                    def go(self):
                        return self.run()
                """,
                layer="core",
            )
        )
        node = graph.node("repro.core.base::Child.go")
        assert [e.to for e in node.edges] == ["repro.core.base::Base.run"]


class TestDegradation:
    def test_type_checking_only_imports_produce_no_edges(self):
        graph = build(
            summarize(
                "src/repro/core/typed.py",
                """
                from typing import TYPE_CHECKING

                if TYPE_CHECKING:
                    from repro.sim.engine import Simulator

                def describe(sim):
                    return sim
                """,
                layer="core",
            ),
            summarize(
                "src/repro/sim/engine.py",
                """
                class Simulator:
                    def __init__(self):
                        self.t = 0
                """,
                layer="sim",
            ),
        )
        for node in graph:
            assert not node.edges

    def test_unique_star_import_resolves(self):
        graph = build(
            summarize(
                "src/repro/core/user.py",
                """
                from repro.helpers import *

                def use():
                    return helper()
                """,
                layer="core",
            ),
            summarize(
                "src/repro/helpers.py",
                """
                def helper():
                    return 1
                """,
            ),
        )
        node = graph.node("repro.core.user::use")
        assert [e.to for e in node.edges] == ["repro.helpers::helper"]

    def test_ambiguous_star_import_degrades_to_no_edge(self):
        graph = build(
            summarize(
                "src/repro/core/user.py",
                """
                from repro.helpers import *
                from repro.others import *

                def use():
                    return helper()
                """,
                layer="core",
            ),
            summarize(
                "src/repro/helpers.py",
                """
                def helper():
                    return 1
                """,
            ),
            summarize(
                "src/repro/others.py",
                """
                def helper():
                    return 2
                """,
            ),
        )
        node = graph.node("repro.core.user::use")
        # Two candidate targets: refusing to pick is the contract —
        # an arbitrary choice would over-report downstream rules.
        assert not node.edges

    def test_dynamic_dispatch_degrades_to_unknown_callee(self):
        graph = build(
            summarize(
                "src/repro/core/dispatch.py",
                """
                def run(registry, name):
                    target = getattr(registry, name)
                    return target()
                """,
                layer="core",
            )
        )
        node = graph.node("repro.core.dispatch::run")
        assert not node.edges
        assert "target" in node.unknown_callees

    def test_unresolvable_import_is_not_an_unknown_callee(self):
        # A resolved-but-external canonical (stdlib, third-party) is
        # neither an edge nor an unknown callee: the name is known,
        # the code just lives outside the project.
        graph = build(
            summarize(
                "src/repro/core/ext.py",
                """
                import math

                def area(r):
                    return math.pi * r * r
                """,
                layer="core",
            )
        )
        node = graph.node("repro.core.ext::area")
        assert not node.edges
        assert node.unknown_callees == []


class TestPoolBoundary:
    POOL_MODULE = """
        from concurrent.futures import ProcessPoolExecutor

        POOL_BOUNDARY = ("annotated_entry",)

        def annotated_entry(p):
            return p

        def submitted_entry(p):
            return p

        def run(points):
            with ProcessPoolExecutor() as pool:
                futures = [pool.submit(submitted_entry, p) for p in points]
                hidden = [pool.submit(lambda p: p, p) for p in points]
            return futures, hidden
        """

    def test_worker_entries_union_submits_and_annotation(self):
        graph = build(
            summarize("src/repro/runtime/pool.py", self.POOL_MODULE, "runtime")
        )
        assert graph.worker_entry_keys() == [
            "repro.runtime.pool::annotated_entry",
            "repro.runtime.pool::submitted_entry",
        ]

    def test_lambda_submission_is_unresolvable(self):
        graph = build(
            summarize("src/repro/runtime/pool.py", self.POOL_MODULE, "runtime")
        )
        sites = graph.pool_call_sites()
        assert len(sites) == 2
        lambda_args = [
            s.call.args[0] for s in sites if s.call.args[0].kind == "lambda"
        ]
        assert len(lambda_args) == 1
        assert (
            graph.resolve_argument(sites[0].node_key, lambda_args[0]) is None
        )

    def test_resolve_argument_on_name(self):
        graph = build(
            summarize("src/repro/runtime/pool.py", self.POOL_MODULE, "runtime")
        )
        resolved = graph.resolve_argument(
            "repro.runtime.pool::run",
            ArgRef(kind="name", dotted="submitted_entry", canonical=None),
        )
        assert resolved is not None
        assert resolved.key == "repro.runtime.pool::submitted_entry"


class TestSerializationAndEngine:
    def test_to_json_shape(self):
        graph = build(
            summarize(
                "src/repro/core/a.py",
                """
                def f():
                    return g()

                def g():
                    return 1
                """,
                layer="core",
            )
        )
        document = json.loads(graph.to_json())
        assert document["version"] == 1
        assert document["files"] == 1
        assert document["functions"] == 3  # f, g, <module>
        assert document["edges"] == 1
        assert document["worker_entries"] == []
        keys = [node["key"] for node in document["nodes"]]
        assert keys == sorted(keys)

    def test_syntax_error_file_is_skipped_not_fatal(self, tmp_path):
        spine = tmp_path / "repro" / "sim"
        spine.mkdir(parents=True)
        (spine / "broken.py").write_text("def oops(:\n")
        (spine / "ok.py").write_text(
            '"""Fine."""\n\n__all__ = ["f"]\n\n\ndef f():\n    return 1\n'
        )
        engine = LintEngine(
            rules=build_rules(), root=tmp_path, want_graph=True
        )
        report = engine.run([tmp_path])
        assert engine.graph is not None
        # The broken file contributes nothing to the graph; the intact
        # one is still summarized.
        assert engine.graph.files_summarized == 1
        assert report.files_scanned == 2

    def test_duplicate_function_names_keep_first(self):
        # Pathological but must not crash: conditional double-def.
        graph = build(
            summarize(
                "src/repro/core/dup.py",
                """
                def f():
                    return 1

                def f():
                    return 2
                """,
                layer="core",
            )
        )
        node = graph.node("repro.core.dup::f")
        assert node is not None
        assert node.summary.lineno == 2
