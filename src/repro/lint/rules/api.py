"""API-hygiene rules (RPR501–RPR502).

The package advertises its public surface through ``__all__`` (the
public-API test walks it) and layers its imports one way, down one
declared order (:data:`LAYER_RANKS`).  A ``sim`` module importing
``core`` or ``runtime`` would make importing the simulator depend on
which package happened to load first — exactly the import cycles that
made the seed's monolith hard to split.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro.lint.engine import FileContext, Finding
from repro.lint.graph.summary import is_type_checking_test
from repro.lint.rules.base import Rule

__all__ = ["LAYER_RANKS", "MissingAllRule", "LayerImportRule"]

#: The layer order, lowest first: a module may import its own layer or
#: a lower one.  A layer is a ``repro`` subpackage or a module directly
#: under ``repro`` (``errors``, ``units``, ``cli``).  ``memory`` and
#: ``stream`` share a rank: here ``stream`` builds on ``memory``, but a
#: project may layer the two the other way round (e2ebench's lint
#: corpus does), and neither order is part of the contract.
LAYER_RANKS: Dict[str, int] = {
    "errors": 0,
    "units": 1,
    "memory": 2,
    "stream": 2,
    "sim": 3,
    "core": 4,
    "workloads": 5,
    "analysis": 6,
    "runtime": 7,
    "lint": 8,
    "cli": 9,
}


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


def _file_layer(path: Path) -> Optional[str]:
    """The ranked layer of ``.../repro/<layer>/...`` or
    ``.../repro/<layer>.py``, if any."""
    parts = path.parts
    for index, part in enumerate(parts[:-1]):
        if part == "repro":
            name = parts[index + 1]
            name = name[:-3] if name.endswith(".py") else name
            if name in LAYER_RANKS:
                return name
    return None


def _module_layer(module: str) -> Optional[str]:
    """The ranked layer of the module ``repro.<layer>[.…]``, if any."""
    parts = module.split(".")
    if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYER_RANKS:
        return parts[1]
    return None


def _imported_modules(node: ast.AST) -> Iterator[str]:
    """Absolute module names an import statement loads."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield alias.name
    elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
        if node.module == "repro":  # ``from repro import units``
            for alias in node.names:
                yield f"repro.{alias.name}"
        else:
            yield node.module


class LayerImportRule(Rule):
    """RPR502: an import goes up the layer order.

    Every import of a ranked layer must name its own layer or a lower
    one in :data:`LAYER_RANKS`, wherever it sits (inside a function
    too).  Imports under ``if TYPE_CHECKING:`` are exempt — they vanish
    at runtime and exist exactly to annotate upper-layer types without
    depending on them.
    """

    id = "RPR502"
    title = "import goes up the layer order"
    family = "api-hygiene"
    severity = "error"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        layer = _file_layer(Path(ctx.display_path))
        if layer is None:
            return
        rank = LAYER_RANKS[layer]
        for node in _runtime_nodes(ctx.tree):
            for module in _imported_modules(node):
                target = _module_layer(module)
                if target is not None and LAYER_RANKS[target] > rank:
                    yield self.finding(
                        ctx,
                        node,
                        f"layer {layer!r} imports {module} from the higher "
                        f"layer {target!r}; imports go down the order errors "
                        "< units < memory = stream < sim < core < workloads "
                        "< analysis < runtime < lint < cli",
                    )
