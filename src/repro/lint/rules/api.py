"""API-hygiene rules (RPR501–RPR502).

The package advertises its public surface through ``__all__`` (the
public-API test walks it) and layers its imports one way: the
deterministic model layers at the bottom, orchestration (``runtime``,
``cli``) and tooling (``lint``) on top.  A ``sim`` module importing
``runtime`` would let wall-clock measurement types leak into the
simulator — and create exactly the import cycles that made the seed's
monolith hard to split.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Finding
from repro.lint.graph.summary import is_type_checking_test
from repro.lint.rules.base import Rule

__all__ = ["MissingAllRule", "LayerImportRule"]

#: Layers that must never import from the orchestration layers.
_LOWER_LAYERS = frozenset(
    {"analysis", "core", "memory", "sim", "stream", "workloads"}
)
#: Module prefixes that constitute the orchestration/tooling layers.
_UPPER_PREFIXES = ("repro.runtime", "repro.cli", "repro.lint")


class MissingAllRule(Rule):
    """RPR501: public ``repro`` module without an ``__all__``.

    ``__all__`` is the contract the public-API test and the docs
    enforce; a module without one exports whatever it happened to
    import, and re-export drift goes unnoticed.  ``__main__`` is
    exempt (it is an entry point, not an API).
    """

    id = "RPR501"
    title = "public module missing __all__"
    family = "api-hygiene"
    severity = "error"
    autofixable = True
    layers = frozenset(
        {"analysis", "core", "lint", "memory", "root", "runtime", "sim",
         "stream", "workloads"}
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        stem = ctx.path.stem
        if stem.startswith("__") and stem != "__init__":
            return
        for node in ctx.tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return
        yield Finding(
            rule=self.id,
            severity=self.severity,
            path=ctx.display_path,
            line=1,
            col=1,
            message=(
                "public module defines no __all__; declare the exported "
                "names (an empty list is fine for internal modules)"
            ),
            source_line=ctx.line_text(1),
        )


def _runtime_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Walk the tree, skipping ``if TYPE_CHECKING:`` bodies.

    Type-only imports create no runtime dependency; they are the
    sanctioned way for a lower layer to *annotate* an upper-layer type
    without importing it.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and is_type_checking_test(child.test):
            for orelse in child.orelse:
                yield orelse
                yield from _runtime_nodes(orelse)
            continue
        yield child
        yield from _runtime_nodes(child)


class LayerImportRule(Rule):
    """RPR502: deterministic layer imports an orchestration layer.

    Imports under ``if TYPE_CHECKING:`` are exempt — they vanish at
    runtime and exist exactly to annotate upper-layer types without
    depending on them.
    """

    id = "RPR502"
    title = "lower layer imports runtime/cli/lint"
    family = "api-hygiene"
    severity = "error"
    layers = _LOWER_LAYERS

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in _runtime_nodes(ctx.tree):
            modules = []
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
            for module in modules:
                if any(
                    module == prefix or module.startswith(prefix + ".")
                    for prefix in _UPPER_PREFIXES
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"layer {ctx.layer!r} imports {module}: the "
                        "deterministic model layers must not depend on "
                        "orchestration/tooling (imports flow strictly "
                        "upward; see docs/static_analysis.md)",
                    )
