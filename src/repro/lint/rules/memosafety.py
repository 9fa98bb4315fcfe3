"""Memo-safety rules (RPR201–RPR202).

The :class:`~repro.memory.equilibrium.EquilibriumSolver` and
:class:`~repro.sim.engine.RateCalculator` memos are sound only because
their keys are immutable once built: they key on demand signatures
computed at construction or dispatch, with **no invalidation path** —
a field that feeds a signature and is later written would silently
serve stale snapshots.  RPR201 holds frozen dataclasses to that
contract; RPR202 holds the fields a class declares in ``MEMO_KEY`` to
it, wherever the write happens (it absorbed RPR904 and RPR905).
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from repro.lint.engine import FileContext, Finding
from repro.lint.rules.base import CorpusRule, Rule, dotted_name
from repro.lint.rules.effects import _SKIPPED_LAYERS

__all__ = ["FrozenMutationRule", "MemoFieldMutationRule"]

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
    hashes cannot survive.  A memo a frozen instance owns is attached
    in ``__post_init__``, dropped in ``__getstate__`` and rebuilt in
    ``__setstate__`` (``Machine``, ``MemorySystem``), never lazily.
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


class MemoFieldMutationRule(CorpusRule):
    """RPR202: a declared memo-key input written after construction.

    A class names the fields its memo key reads in one class attribute,
    ``MEMO_KEY = ("core_id", "demand", ...)``.  Those fields are fixed
    at construction; the rule flags, in every layer but ``tests`` and
    ``unknown``:

    * a direct or augmented store on the receiver outside
      ``__init__``/``__post_init__``;
    * an in-place or aliased mutation of the field outside the rebuild
      methods (construction and the pickle hooks);
    * an object mutated after its capture into the field, constructors
      included (the capture already happened);
    * a store through a local bound to the class's constructor, in any
      module (``rt = RunningTask(...); rt.demand = d``).

    Not attributed: a write through another function's parameter (its
    class is unknown), and a write in a subclass that does not repeat
    the declaration.
    """

    id = "RPR202"
    title = "memo-key field written after construction"
    family = "memo-safety"
    severity = "error"
    needs_graph = True

    def consume_graph(self, graph) -> None:
        modules = graph.module_summaries()
        declared = {
            f"{namespace}.{cls.name}": cls.memo_key
            for namespace, summary in modules.items()
            for cls in summary.classes
            if cls.memo_key
        }
        if not declared:
            return
        for namespace in sorted(modules):
            summary = modules[namespace]
            if summary.layer in _SKIPPED_LAYERS:
                continue
            for function in summary.functions:
                if function.class_name is not None:
                    own = declared.get(
                        graph.resolve_type(namespace, function.class_name), ()
                    )
                    if own:
                        self._receiver_writes(summary.path, function, own)
                for write in function.units.attr_writes:
                    if write.class_name == function.class_name:
                        continue  # a store on the receiver: judged above
                    target = graph.resolve_type(namespace, write.class_name)
                    if write.attr in declared.get(target, ()):
                        self._report(
                            summary.path,
                            write.lineno,
                            f"{target}.{write.attr}",
                            f"written through a local built by its "
                            f"constructor in {function.qualname}()",
                            f"{function.qualname}: store on "
                            f"{target}.{write.attr}",
                        )

    def _receiver_writes(self, path, function, own: Tuple[str, ...]) -> None:
        method = function.qualname.rpartition(".")[2]
        for cm in function.effects.capture_mutations:
            if cm.attr in own:
                chain = cm.chain()
                self._report(
                    path,
                    cm.lineno,
                    f"{function.class_name}.{cm.attr}",
                    f"bound to {cm.name!r} (line {cm.capture_lineno}), "
                    f"which is mutated here ({cm.kind}; alias chain: "
                    f"{chain}) — store a copy",
                    f"{function.qualname}: {cm.kind} on {cm.name} after "
                    f"capture into self.{cm.attr} via {chain}",
                )
        receiver = function.params[0] if function.params else None
        for mutation in function.effects.mutations:
            if mutation.param != receiver or mutation.field not in own:
                continue
            direct = mutation.via == (receiver,) and mutation.kind in (
                "store-attr",
                "augstore",
            )
            if method in (_CONSTRUCTORS if direct else _REBUILD_METHODS):
                continue
            chain = mutation.chain()
            shape = "reassigned" if direct else (
                f"mutated in place or through an alias ({mutation.kind}; "
                f"alias chain: {chain})"
            )
            self._report(
                path,
                mutation.lineno,
                f"{function.class_name}.{mutation.field}",
                f"{shape} in {method}()",
                f"{function.qualname}: {mutation.kind} on "
                f"{function.class_name}.{mutation.field} via {chain}",
            )

    def _report(
        self, path: str, line: int, field: str, how: str, source: str
    ) -> None:
        self._findings.append(
            Finding(
                rule=self.id,
                severity=self.severity,
                path=path,
                line=line,
                col=0,
                message=(
                    f"{field} is a memo-key input (MEMO_KEY) but is {how}; "
                    "memo-key inputs are fixed at construction (the "
                    "snapshot memo has no invalidation path)"
                ),
                source_line=source,
            )
        )
