"""Per-file analysis summaries — the call graph's unit of exchange.

The whole-program pass (``repro.lint.graph.builder``) never touches an
AST: each file is condensed — in the same pass that runs the per-file
rules, possibly inside a ``--jobs`` worker process — into a
:class:`ModuleSummary` of plain tuples and strings.  Summaries pickle
cheaply across the process-pool boundary, and the single-process graph
phase assembles them into a project-wide symbol table afterwards.

This module is deliberately a *leaf*: it imports only the standard
library, so the engine, the rules, the builder, and the analyses can
all depend on it without cycles.  It holds the records, the file's one
import table (:class:`ImportTable`) and the small AST helpers the
rules share (:func:`dotted`, :func:`is_type_checking_test`,
:func:`class_strings`).  The one per-file walk that fills the records
lives in :mod:`repro.lint.graph.extract`.

What a summary records per scope (``<module>`` stands for module-level
statements, including class bodies): one :class:`CallRef` per call
expression the scope evaluates, carrying everything both dataflow
analyses and the graph read about the call; determinism-sink facts
that are not calls (``os.environ`` reads, built-in ``hash()`` calls);
pool-safety facts (``global`` writes, telemetry-emitting calls); and
the scope's local effect and unit facts.  Per module it records the
import table, classes, callable aliases, string tuples, telemetry
event sites and class-body attribute units.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ArgRef",
    "CallRef",
    "ClassSummary",
    "FunctionSummary",
    "ImportTable",
    "ModuleSummary",
    "MODULE_SCOPE",
    "class_strings",
    "dotted",
    "is_type_checking_test",
    "module_name_for_path",
]

#: Qualname of the synthetic function holding module-level statements.
MODULE_SCOPE = "<module>"


@dataclass(frozen=True)
class ArgRef:
    """One argument of a call (or the receiver of a method call).

    ``kind`` is ``"name"`` / ``"attribute"`` (potentially a first-order
    callable reference), ``"lambda"``, ``"call"``, ``"constant"``, or
    ``"other"``; ``dotted``/``canonical`` mirror the fields on
    :class:`CallRef` and are only set for name/attribute arguments.
    ``alias`` is the ``(param, field)`` of the caller's parameter the
    argument denotes (the effect analysis's binding), ``unit`` its
    symbolic :class:`~repro.lint.dimflow.model.UnitTerm` (the unit
    analysis's); either is ``None`` when there is no evidence.
    """

    kind: str
    dotted: Optional[str] = None
    canonical: Optional[str] = None
    alias: Optional[Tuple[str, str]] = None
    unit: Optional["UnitTerm"] = None  # noqa: F821


@dataclass(frozen=True)
class CallRef:
    """One call expression inside a scope — the one call record.

    ``canonical`` is the import-canonical form of ``dotted`` and
    ``receiver_class`` the constructor class of a local receiver;
    ``args``/``kwargs`` describe the positional and named arguments
    (``**kwargs`` is not recorded), ``star`` is the position of the
    first ``*args`` argument, ``caught`` the exception types every
    enclosing ``try`` would catch at the call, and ``receiver`` the
    receiver when it is an alias of a parameter.
    """

    dotted: Optional[str]
    canonical: Optional[str]
    receiver_class: Optional[str]
    lineno: int
    args: Tuple[ArgRef, ...] = ()
    kwargs: Tuple[Tuple[str, ArgRef], ...] = ()
    star: Optional[int] = None
    caught: Tuple[str, ...] = ()
    receiver: Optional[ArgRef] = None


@dataclass(frozen=True)
class FunctionSummary:
    """One function, method, or the synthetic module scope."""

    qualname: str
    lineno: int
    #: True for a plain ``def`` directly at module level — the only
    #: shape that pickles across the process-pool boundary.
    is_toplevel: bool
    class_name: Optional[str]
    calls: Tuple[CallRef, ...]
    env_reads: Tuple[int, ...] = ()
    hash_calls: Tuple[int, ...] = ()
    global_writes: Tuple[Tuple[str, int], ...] = ()
    emit_calls: Tuple[int, ...] = ()
    #: Positional parameter names in order (``self`` included), and
    #: keyword-only ones; both empty for the module scope.
    params: Tuple[str, ...] = ()
    kwonly: Tuple[str, ...] = ()
    #: Local effect facts (see :mod:`repro.lint.effects`); ``None``
    #: for the module scope, which has no parameter for an effect to
    #: reach.
    effects: Optional["FunctionEffects"] = None  # noqa: F821
    #: Local unit facts (see :mod:`repro.lint.dimflow`).
    units: Optional["UnitFacts"] = None  # noqa: F821


@dataclass(frozen=True)
class ClassSummary:
    """One module-level class: its bases (canonical when imported),
    the names of its directly defined methods, and the fields its
    ``MEMO_KEY = ("a", ...)`` class attribute declares as memo-key
    inputs (empty when it declares none; the memo-safety rule RPR202
    protects exactly these)."""

    name: str
    lineno: int
    bases: Tuple[str, ...]
    methods: Tuple[str, ...]
    memo_key: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ModuleSummary:
    """Everything the project graph needs to know about one file."""

    path: str
    module: Optional[str]
    layer: str
    imports: Tuple[Tuple[str, str], ...]
    star_imports: Tuple[str, ...]
    functions: Tuple[FunctionSummary, ...]
    classes: Tuple[ClassSummary, ...]
    #: Module-level ``NAME = other_name`` aliases (callable re-exports).
    aliases: Tuple[Tuple[str, str], ...]
    #: Module-level ``NAME = ("a", "b")`` string tuples/lists — how the
    #: pool-safety pass finds ``POOL_BOUNDARY`` annotations.
    string_tuples: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: ``(event_name, "emit"|"filter", lineno)`` telemetry references.
    event_sites: Tuple[Tuple[str, str, int], ...] = ()
    defines_event_schemas: bool = False
    #: Class-body attribute declarations with their unit terms (the
    #: unit analysis's attribute evidence).
    class_attrs: Tuple["ClassAttr", ...] = ()  # noqa: F821


def module_name_for_path(display_path: str) -> Optional[str]:
    """Dotted module name of a file lying on a ``repro/`` spine.

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine``;
    ``.../fixtures/RPR601/bad/repro/clockutil.py`` -> ``repro.clockutil``
    (fixture corpora embed the spine so layer- and module-scoped logic
    sees them exactly as it sees the real tree).  ``__init__.py`` maps
    to its package.  Files with no ``repro`` ancestor return ``None``
    — they still participate in the graph, namespaced by path.
    """
    parts = display_path.replace("\\", "/").split("/")
    if not parts or not parts[-1].endswith(".py"):
        return None
    anchor = None
    for index, part in enumerate(parts[:-1]):
        if part == "repro":
            anchor = index
    if anchor is None:
        return None
    tail = list(parts[anchor:-1])
    stem = parts[-1][: -len(".py")]
    if stem != "__init__":
        tail.append(stem)
    return ".".join(tail)


class ImportTable:
    """A file's imports: module-local name -> canonical dotted path.

    Collected from the whole file before anything resolves through it,
    so a call above a bottom-of-file ``import`` still canonicalizes.
    ``import numpy as np`` binds ``np -> numpy``; ``from time import
    time as now`` binds ``now -> time.time``; relative imports resolve
    against the module's own dotted name (when the file lies on a
    ``repro/`` spine); star imports are recorded separately.  Imports
    under ``if TYPE_CHECKING:`` create no runtime binding and are
    skipped.  Names never bound by an import resolve to ``None``, so
    locals that shadow a module name do not false-positive.
    """

    def __init__(self, tree: ast.Module, display_path: str) -> None:
        self.map: Dict[str, str] = {}
        self.stars: List[str] = []
        #: The file's own dotted module name (``None`` off a spine).
        self.module = module_name_for_path(display_path)
        self._is_package = display_path.replace("\\", "/").endswith(
            "/__init__.py"
        )
        self._collect(tree)

    def _collect(self, node: ast.AST) -> None:
        children = (
            node.orelse
            if isinstance(node, ast.If) and is_type_checking_test(node.test)
            else ast.iter_child_nodes(node)
        )
        for child in children:
            if isinstance(child, ast.Import):
                self._add_import(child)
            elif isinstance(child, ast.ImportFrom):
                self._add_import_from(child)
            elif not isinstance(child, ast.expr):  # exprs hold no imports
                self._collect(child)

    def _resolve_level(self, level: int) -> Optional[str]:
        if self.module is None:
            return None
        parts = self.module.split(".")
        if not self._is_package:
            parts = parts[:-1]
        drop = level - 1
        if drop > len(parts):
            return None
        base = parts[: len(parts) - drop]
        return ".".join(base) if base else None

    def _add_import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            canonical = alias.name if alias.asname else local
            self.map[local] = canonical

    def _add_import_from(self, node: ast.ImportFrom) -> None:
        if node.level:
            base = self._resolve_level(node.level)
            if base is None:
                return
            module = f"{base}.{node.module}" if node.module else base
        else:
            if node.module is None:
                return
            module = node.module
        for alias in node.names:
            if alias.name == "*":
                self.stars.append(module)
                continue
            local = alias.asname or alias.name
            self.map[local] = f"{module}.{alias.name}"

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain, if imported."""
        chain: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            chain.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self.map.get(current.id)
        if base is None:
            return None
        chain.append(base)
        return ".".join(reversed(chain))


def dotted(node: ast.AST) -> Optional[str]:
    """Literal dotted text of a Name/Attribute chain (no import logic)."""
    chain: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        chain.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    chain.append(current.id)
    return ".".join(reversed(chain))


def class_strings(node: ast.ClassDef, name: str) -> Optional[Tuple[str, ...]]:
    """String entries of the class attribute ``name`` (``__slots__``,
    ``MEMO_KEY``), or ``None`` when the class body never assigns it."""
    for statement in node.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets, value = [statement.target], statement.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                names: List[str] = []
                if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                    for element in value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            names.append(element.value)
                return tuple(names)
    return None


def is_type_checking_test(node: ast.expr) -> bool:
    """Whether an ``if`` test is ``TYPE_CHECKING`` (type-only code)."""
    return (isinstance(node, ast.Name) and node.id == "TYPE_CHECKING") or (
        isinstance(node, ast.Attribute) and node.attr == "TYPE_CHECKING"
    )
