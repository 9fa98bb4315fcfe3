"""Memo-safety rules (RPR201–RPR202).

PR 3's caches are sound only because their keys are immutable once
built: the :class:`~repro.memory.equilibrium.EquilibriumSolver` and
:class:`~repro.sim.engine.RateCalculator` memos key on demand
signatures computed at construction/dispatch, with **no invalidation
path** — a field that feeds a signature and is later reassigned would
silently serve stale snapshots.  These rules freeze that contract in
the source.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from repro.lint.engine import FileContext, Finding
from repro.lint.graph.summary import class_slots
from repro.lint.rules.base import Rule, dotted_name

__all__ = [
    "FrozenMutationRule",
    "MemoFieldMutationRule",
    "MEMO_KEY_FIELDS",
    "is_memo_key_slot",
]

#: Field names treated as memo-signature inputs on ``__slots__``
#: classes besides anything spelled ``_sig*``: the dispatch-cached
#: derived fields of :class:`~repro.sim.engine.RunningTask`.
MEMO_KEY_FIELDS = frozenset({"demand", "total_units"})

_CONSTRUCTORS = frozenset({"__init__", "__post_init__"})
#: Methods allowed to rebuild internal state wholesale: construction
#: plus unpickling (which reconstructs, never mutates live state).
_REBUILD_METHODS = _CONSTRUCTORS | {"__getstate__", "__setstate__"}


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = dotted_name(decorator.func)
        if name not in ("dataclass", "dataclasses.dataclass"):
            continue
        for keyword in decorator.keywords:
            if (
                keyword.arg == "frozen"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return True
    return False


def is_memo_key_slot(name: str) -> bool:
    """Whether a ``__slots__`` name feeds a memo signature: ``_sig*``
    (signature tuple entries) or one of :data:`MEMO_KEY_FIELDS`."""
    return name.startswith("_sig") or name in MEMO_KEY_FIELDS


def _methods(node: ast.ClassDef) -> Iterator[ast.FunctionDef]:
    for statement in node.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield statement


class FrozenMutationRule(Rule):
    """RPR201: frozen dataclass mutated outside construction.

    ``object.__setattr__(self, ...)`` is the only way to write to a
    frozen dataclass; inside ``__init__``/``__post_init__`` (and the
    pickle rebuild hooks) it is the documented idiom, anywhere else it
    is a mutation of an object the rest of the system assumes
    immutable — exactly what memo keys and content-addressed cache
    hashes cannot survive.  A deliberate write-once lazy memo attach
    can be annotated with ``# repro: lint-ok RPR201 -- reason``.
    """

    id = "RPR201"
    title = "frozen dataclass mutated outside construction"
    family = "memo-safety"
    severity = "error"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            if not _is_frozen_dataclass(class_node):
                continue
            for method in _methods(class_node):
                if method.name in _REBUILD_METHODS:
                    continue
                for node in ast.walk(method):
                    if (
                        isinstance(node, ast.Call)
                        and dotted_name(node.func) == "object.__setattr__"
                        and node.args
                        and isinstance(node.args[0], ast.Name)
                        and node.args[0].id == "self"
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"frozen dataclass {class_node.name!r} mutated in "
                            f"{method.name}(); frozen instances may only be "
                            "written during __init__/__post_init__ (memo "
                            "keys and cache hashes assume they never change)",
                        )


class MemoFieldMutationRule(Rule):
    """RPR202: memo-signature field of a ``__slots__`` class reassigned.

    On a ``__slots__`` class, slots named ``_sig*`` (signature tuple
    entries) or listed in :data:`MEMO_KEY_FIELDS` (``demand``,
    ``total_units``) feed the rate-snapshot/equilibrium memo keys.
    They are computed once at dispatch; reassigning one after
    ``__init__`` would let a cached snapshot describe a population
    that no longer exists.
    """

    id = "RPR202"
    title = "memo-signature field assigned after construction"
    family = "memo-safety"
    severity = "error"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for class_node in ast.walk(ctx.tree):
            if not isinstance(class_node, ast.ClassDef):
                continue
            slots = class_slots(class_node)
            if slots is None:
                continue
            protected = {name for name in slots if is_memo_key_slot(name)}
            if not protected:
                continue
            for method in _methods(class_node):
                if method.name in _CONSTRUCTORS:
                    continue
                yield from self._assignments(ctx, class_node, method, protected)

    def _assignments(
        self,
        ctx: FileContext,
        class_node: ast.ClassDef,
        method: ast.FunctionDef,
        protected: Set[str],
    ) -> Iterator[Finding]:
        for node in ast.walk(method):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and target.attr in protected
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"{class_node.name}.{target.attr} feeds a memo "
                        f"signature but is assigned in {method.name}(); "
                        "signature fields are write-once at dispatch "
                        "(the snapshot memo has no invalidation path)",
                    )
