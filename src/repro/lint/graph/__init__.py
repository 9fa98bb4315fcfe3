"""Cross-module analysis layer for ``repro lint``.

Two stages, deliberately separated so the first can run in worker
processes (summaries are plain picklable dataclasses; ASTs never
cross a process boundary):

1. :func:`~repro.lint.graph.extract.extract_summary` — the one
   per-file walk — reduces one parsed file to a
   :class:`~repro.lint.graph.summary.ModuleSummary` of defs, classes,
   imports, one call record per call, sink usages, and the local
   effect and unit facts;
2. :class:`~repro.lint.graph.builder.ProjectGraph` assembles the
   summaries into a project symbol table + resolved call graph with
   deterministic BFS reachability (shortest call paths, stable tie
   breaks); each call is resolved there, once.

:class:`~repro.lint.graph.dataflow.Interprocedural` is the core both
fixpoint analyses (effects, units) run on over that graph.

Rules opt in via ``needs_graph`` and receive the shared instance —
the graph is built once per lint run and cached on the engine.
"""

from repro.lint.graph.builder import CallSite, Edge, FunctionNode, ProjectGraph
from repro.lint.graph.extract import extract_summary
from repro.lint.graph.summary import (
    ArgRef,
    CallRef,
    ClassSummary,
    FunctionSummary,
    ImportTable,
    ModuleSummary,
    module_name_for_path,
)

__all__ = [
    "ArgRef",
    "CallRef",
    "CallSite",
    "ClassSummary",
    "Edge",
    "FunctionNode",
    "FunctionSummary",
    "ImportTable",
    "ModuleSummary",
    "ProjectGraph",
    "extract_summary",
    "module_name_for_path",
]
