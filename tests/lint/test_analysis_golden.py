"""Analysis golden: what the graph and both fixpoints compute per corpus.

``snapshots/fixture_findings.json`` pins the findings; this golden pins
the analyses under them on every fixture and acceptance corpus — each
node's sorted call-graph edges, each function's effect signature (the
``⊤`` flags included) and the ``--units-output`` document — so a
change to the per-file walk or the interprocedural core that moves a
fact no rule happens to report still fails here.

Regenerate from the repository root with ``PYTHONPATH=src python -m
tests.lint.test_analysis_golden`` and review the diff.
"""

import ast
import functools
import json
import pathlib

import pytest

from repro.lint import ProjectGraph, extract_summary, iter_python_files, layer_for_path
from repro.lint.dimflow.fixpoint import UnitAnalysis
from repro.lint.effects.fixpoint import EffectAnalysis
from tests.lint.test_fixtures import FIXTURES, corpora

GOLDEN = pathlib.Path(__file__).resolve().parent / "snapshots" / "analysis_golden.json"


def summaries(corpus):
    """Every parseable file's summary, with the engine's display paths."""
    found = []
    for path in iter_python_files([FIXTURES / corpus]):
        display = path.resolve().relative_to(FIXTURES.resolve()).as_posix()
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (SyntaxError, ValueError):
            continue  # an RPR001 fixture contributes no summary
        layer = layer_for_path(pathlib.Path(display))
        found.append(extract_summary(tree, display, layer))
    return found


def analysis_document(corpus):
    found = summaries(corpus)
    graph = ProjectGraph(found)
    effects = EffectAnalysis(graph, found)
    units = UnitAnalysis(graph, found)
    signatures = {}
    for key in effects.keys():
        signature = effects.signature(key)
        signatures[key] = {
            "mutates": sorted(list(pair) for pair in signature.mutates),
            "captures": sorted(signature.captures),
            "raises": sorted(signature.raises),
            "mutates_top": signature.mutates_top,
            "captures_top": signature.captures_top,
            "raises_top": signature.raises_top,
        }
    return {
        "edges": {
            node.key: sorted([edge.to, edge.lineno, edge.kind] for edge in node.edges)
            for node in graph
        },
        "effects": signatures,
        "units": json.loads(units.to_json()),
    }


@functools.lru_cache(maxsize=1)
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_corpus():
    assert sorted(golden()) == corpora()


@pytest.mark.parametrize("corpus", corpora())
def test_analyses_match_golden(corpus):
    assert analysis_document(corpus) == golden()[corpus]


if __name__ == "__main__":
    document = {corpus: analysis_document(corpus) for corpus in corpora()}
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
