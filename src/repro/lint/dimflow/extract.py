"""Per-function local unit-fact extraction (the ``--jobs``-parallel half).

One linear, flow-sensitive walk per function body, building a symbolic
:class:`~repro.lint.dimflow.model.UnitTerm` for every expression the
interprocedural pass will care about:

* **assignments** thread terms through locals (``x = footprint_bytes``
  makes ``x`` a known ``bytes``; ``x = budget`` makes it a reference
  to the parameter ``budget``'s future unit; ``x = helper(...)`` a
  reference to that call's future return unit);
* **calls** record the term of every argument, so the fixpoint can
  flow units *into* callee parameters and argue about mismatches;
* **returns** record each ``return expr`` term (RPR811's evidence);
* **attribute writes** (``self.attr = expr``, and ``obj.attr = expr``
  through a constructor-built local) record which class attribute got
  which unit (RPR812's evidence);
* **check sites** record every ``+``/``-``/comparison operand pair
  and every augmented ``+=``/``-=`` store (RPR813's evidence, whether
  the operands' units are locally evident or only resolvable through
  the call graph);
* **telemetry emit fields**: in a dict literal carrying an ``"event"``
  key, every unit-suffixed field name is recorded with its value's
  term (RPR814's evidence).

Every scope of the summary pass's walk is analysed, the module scope
included, so module-level code, class bodies, decorators and default
values are checked in the scope that evaluates them.  Control flow is
walked linearly (branch bodies in order, later bindings overriding
earlier ones) — the same honest imprecision as the effect extractor,
documented as a blind spot in the docs appendix.
Everything produced is a plain picklable record from
:mod:`repro.lint.dimflow.model`; resolution against other files
happens later, in :mod:`repro.lint.dimflow.fixpoint`.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.dimflow.algebra import SCALAR, unit_of_name
from repro.lint.dimflow.model import (
    AttrWrite,
    CheckSite,
    ClassAttr,
    EmitField,
    ModuleUnits,
    ReturnSite,
    UnitCallSite,
    UnitFacts,
    UnitTerm,
)
from repro.lint.graph.summary import (
    Scope,
    class_slots,
    dotted,
    star_index,
    target_names,
)
from repro.units import UNIT_CONSTANTS, UNIT_RETURNS

__all__ = ["extract_units"]

#: Builtin conversions that change representation, not dimension:
#: ``float(footprint_bytes)`` is still bytes.
_IDENTITY_CONVERSIONS = frozenset({"float", "int", "abs", "round"})

_COMPARE_OPS = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
}


def _known(unit: str) -> UnitTerm:
    return UnitTerm(kind="known", unit=unit)


class _UnitAnalyzer:
    """One flow-sensitive pass over one scope's body (a function, or
    the module when ``node`` is the :class:`ast.Module`)."""

    def __init__(
        self,
        node: ast.AST,
        qualname: str,
        class_name: Optional[str],
        bindings,  # repro.lint.graph.summary._Bindings
    ) -> None:
        self.node = node
        self.qualname = qualname
        self.class_name = class_name
        self.bindings = bindings
        args = getattr(node, "args", None)
        self.params: Tuple[str, ...] = ()
        self.kwonly: Tuple[str, ...] = ()
        if args is not None:
            self.params = tuple(
                a.arg for a in list(args.posonlyargs) + list(args.args)
            )
            self.kwonly = tuple(a.arg for a in args.kwonlyargs)
        #: local name -> its current term (params start as references
        #: to their own future signature unit).
        self.env: Dict[str, UnitTerm] = {
            name: UnitTerm(kind="param", name=name)
            for name in set(self.params) | set(self.kwonly)
            if name not in ("self", "cls")
        }
        #: local name -> constructor canonical, for attribute writes
        #: through locals built in this scope.
        self.ctor_locals: Dict[str, str] = {}
        self.returns: List[ReturnSite] = []
        self.calls: List[UnitCallSite] = []
        self.attr_writes: List[AttrWrite] = []
        self.checks: List[CheckSite] = []
        self.emit_fields: List[EmitField] = []
        #: expression node id -> its term.  Each statement evaluates
        #: its value expression more than once (the generic scan plus
        #: the binding/return/check handler); memoizing keeps each
        #: call site and check recorded exactly once.  Safe because
        #: every expression node is evaluated under one env state.
        self._term_cache: Dict[int, Optional[UnitTerm]] = {}

    # -- entry ---------------------------------------------------------

    def run(self) -> UnitFacts:
        for statement in self.node.body:  # type: ignore[attr-defined]
            self._statement(statement)
        return UnitFacts(
            qualname=self.qualname,
            lineno=getattr(self.node, "lineno", 1),
            class_name=self.class_name,
            params=self.params,
            kwonly=self.kwonly,
            returns=tuple(self.returns),
            calls=tuple(self.calls),
            attr_writes=tuple(self.attr_writes),
            checks=tuple(self.checks),
            emit_fields=tuple(self.emit_fields),
        )

    # -- terms ---------------------------------------------------------

    def term_of(self, node: ast.expr) -> Optional[UnitTerm]:
        """Symbolic unit term of an expression; ``None`` = no evidence."""
        cache_key = id(node)
        if cache_key in self._term_cache:
            return self._term_cache[cache_key]
        term = self._term_of(node)
        self._term_cache[cache_key] = term
        return term

    def _term_of(self, node: ast.expr) -> Optional[UnitTerm]:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)) and not isinstance(
                node.value, bool
            ):
                return _known(SCALAR)
            return None
        if isinstance(node, ast.Name):
            bound = self.env.get(node.id)
            if bound is not None:
                return bound
            canonical = self.bindings.resolve(node)
            if canonical in UNIT_CONSTANTS:
                return _known(UNIT_CONSTANTS[canonical])
            unit = unit_of_name(node.id)
            return _known(unit) if unit is not None else None
        if isinstance(node, ast.Attribute):
            canonical = self.bindings.resolve(node)
            if canonical in UNIT_CONSTANTS:
                return _known(UNIT_CONSTANTS[canonical])
            unit = unit_of_name(node.attr)
            return _known(unit) if unit is not None else None
        if isinstance(node, ast.Call):
            return self._call_term(node)
        if isinstance(node, ast.UnaryOp):
            return self.term_of(node.operand)
        if isinstance(node, ast.BinOp):
            return self._binop_term(node)
        if isinstance(node, ast.IfExp):
            left = self.term_of(node.body)
            right = self.term_of(node.orelse)
            return left if left == right else None
        return None

    def _binop_term(self, node: ast.BinOp) -> Optional[UnitTerm]:
        left = self.term_of(node.left)
        right = self.term_of(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self._note_check(
                "+" if isinstance(node.op, ast.Add) else "-",
                node,
                left,
                right,
            )
            if left is not None and left.kind == "known" and (
                left.unit == SCALAR
            ):
                return right if right is not None else left
            if right is not None and right.kind == "known" and (
                right.unit == SCALAR
            ):
                return left if left is not None else right
            return left if left is not None else right
        if isinstance(node.op, ast.Mult):
            if left is None or right is None:
                return None
            return UnitTerm(kind="product", factors=((left, 1), (right, 1)))
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            if left is None or right is None:
                return None
            return UnitTerm(kind="product", factors=((left, 1), (right, -1)))
        if isinstance(node.op, ast.Mod):
            return left
        if isinstance(node.op, ast.Pow):
            if (
                left is not None
                and isinstance(node.right, ast.Constant)
                and isinstance(node.right.value, int)
            ):
                return UnitTerm(
                    kind="product", factors=((left, node.right.value),)
                )
            return None
        return None

    def _call_term(self, node: ast.Call) -> Optional[UnitTerm]:
        canonical = self.bindings.resolve(node.func)
        text = dotted(node.func)
        receiver_class = None
        if isinstance(node.func, ast.Attribute) and isinstance(
            node.func.value, ast.Name
        ):
            receiver_class = self.ctor_locals.get(node.func.value.id)
        # Evaluate the argument terms *before* claiming an index:
        # nested calls append themselves to ``self.calls`` during
        # evaluation, so the outer call's slot is only known after.
        arg_terms = tuple(self.term_of(arg) for arg in node.args)
        kwarg_terms = tuple(
            (keyword.arg, self.term_of(keyword.value))
            for keyword in node.keywords
            if keyword.arg is not None
        )
        index = len(self.calls)
        self.calls.append(
            UnitCallSite(
                dotted=text,
                canonical=canonical,
                receiver_class=receiver_class,
                lineno=node.lineno,
                args=arg_terms,
                kwargs=kwarg_terms,
                star=star_index(node),
            )
        )
        if (
            text in _IDENTITY_CONVERSIONS
            and canonical is None
            and len(arg_terms) == 1
        ):
            return arg_terms[0]
        known = UNIT_RETURNS.get(canonical or "")
        if known is None and canonical is None and text is not None:
            known = UNIT_RETURNS.get(text)
        if known is not None:
            return _known(known)
        return UnitTerm(kind="call", index=index)

    def _note_check(
        self,
        op: str,
        node: ast.AST,
        left: Optional[UnitTerm],
        right: Optional[UnitTerm],
    ) -> None:
        """Record a check site RPR813 can judge after the fixpoint
        (a side with no evidence at all can never fire)."""
        if left is None or right is None:
            return
        self.checks.append(
            CheckSite(
                op=op,
                lineno=node.lineno,  # type: ignore[attr-defined]
                col=getattr(node, "col_offset", -1) + 1,
                left=left,
                right=right,
            )
        )

    # -- statements ----------------------------------------------------

    def _statement(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Decorators and defaults run here; the body is its own scope.
            for expr in node.decorator_list + node.args.defaults + [
                default for default in node.args.kw_defaults if default
            ]:
                self._scan_expr(expr)
            self.env.pop(node.name, None)
            return
        if isinstance(node, ast.ClassDef):
            # The body runs here too, but its names bind in the class
            # namespace, not in this scope.
            for expr in node.decorator_list + node.bases + [
                keyword.value for keyword in node.keywords
            ]:
                self._scan_expr(expr)
            env, ctor_locals = dict(self.env), dict(self.ctor_locals)
            for child in node.body:
                self._statement(child)
            self.env, self.ctor_locals = env, ctor_locals
            self.env.pop(node.name, None)
            return
        if isinstance(node, ast.Return):
            if node.value is not None and not (
                isinstance(node.value, ast.Constant)
                and node.value.value is None
            ):
                self._scan_expr(node.value)
                self.returns.append(
                    ReturnSite(lineno=node.lineno, term=self.term_of(node.value))
                )
            return
        if isinstance(node, ast.Assign):
            self._scan_expr(node.value)
            for target in node.targets:
                self._assign_target(target, node.value, node.lineno)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._scan_expr(node.value)
                self._assign_target(node.target, node.value, node.lineno)
            elif isinstance(node.target, ast.Name):
                self.env.pop(node.target.id, None)
            return
        if isinstance(node, ast.AugAssign):
            self._scan_expr(node.value)
            if isinstance(node.op, (ast.Add, ast.Sub)):
                target_term = self._target_term(node.target)
                value_term = self.term_of(node.value)
                if target_term is not None and value_term is not None:
                    self.checks.append(
                        CheckSite(
                            op="+=" if isinstance(node.op, ast.Add) else "-=",
                            lineno=node.lineno,
                            col=node.col_offset + 1,
                            left=target_term,
                            right=value_term,
                        )
                    )
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._scan_expr(node.iter)
            for name in target_names(node.target):
                self.env.pop(name, None)
            for child in node.body + node.orelse:
                self._statement(child)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._scan_expr(item.context_expr)
                if isinstance(item.optional_vars, ast.Name):
                    self._bind(item.optional_vars.id, item.context_expr)
            for child in node.body:
                self._statement(child)
            return
        if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            for child in node.body:
                self._statement(child)
            for handler in node.handlers:
                if handler.name is not None:
                    self.env.pop(handler.name, None)
                for child in handler.body:
                    self._statement(child)
            for child in node.orelse + node.finalbody:
                self._statement(child)
            return
        if isinstance(node, ast.If):
            self._scan_expr(node.test)
            for child in node.body + node.orelse:
                self._statement(child)
            return
        if isinstance(node, ast.While):
            self._scan_expr(node.test)
            for child in node.body + node.orelse:
                self._statement(child)
            return
        if isinstance(node, ast.Match):
            self._scan_expr(node.subject)
            for case in node.cases:
                if case.guard is not None:
                    self._scan_expr(case.guard)
                for child in case.body:
                    self._statement(child)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
            return
        # Expr / Assert / Raise / Global / Pass / Import ...
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._scan_expr(child)
            elif isinstance(child, ast.stmt):
                self._statement(child)

    def _bind(self, name: str, value: ast.expr) -> None:
        term = self.term_of(value)
        # A unit-suffixed name is a naming contract: binding it a bare
        # literal (``footprint_bytes = 4096``) or an unknown keeps the
        # suffix's dimension, exactly as the expression-local rules
        # read the name.  A value with its own evidence wins — that
        # flow is what the interprocedural rules are for.
        suffix = unit_of_name(name)
        if suffix is not None and (
            term is None
            or (term.kind == "known" and term.unit == SCALAR)
        ):
            term = _known(suffix)
        if term is not None:
            self.env[name] = term
        else:
            self.env.pop(name, None)
        if isinstance(value, ast.Call):
            canonical = self.bindings.resolve(value.func) or dotted(
                value.func
            )
            if canonical is not None:
                self.ctor_locals[name] = canonical
                return
        self.ctor_locals.pop(name, None)

    def _target_term(self, target: ast.expr) -> Optional[UnitTerm]:
        """Term of an augmented-store target (name or attribute)."""
        if isinstance(target, ast.Name):
            bound = self.env.get(target.id)
            if bound is not None:
                return bound
            unit = unit_of_name(target.id)
            return _known(unit) if unit is not None else None
        if isinstance(target, ast.Attribute):
            unit = unit_of_name(target.attr)
            return _known(unit) if unit is not None else None
        return None

    def _assign_target(
        self, target: ast.expr, value: ast.expr, lineno: int
    ) -> None:
        if isinstance(target, ast.Name):
            self._bind(target.id, value)
            return
        if isinstance(target, ast.Attribute):
            owner: Optional[str] = None
            if isinstance(target.value, ast.Name):
                if target.value.id in ("self", "cls"):
                    owner = self.class_name
                else:
                    owner = self.ctor_locals.get(target.value.id)
            if owner is not None:
                self.attr_writes.append(
                    AttrWrite(
                        class_name=owner,
                        attr=target.attr,
                        lineno=lineno,
                        term=self.term_of(value),
                    )
                )
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            values: Sequence[Optional[ast.expr]]
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(target.elts):
                values = value.elts
            else:
                values = [None] * len(target.elts)
            for element, element_value in zip(target.elts, values):
                if isinstance(element, ast.Name):
                    if element_value is not None:
                        self._bind(element.id, element_value)
                    else:
                        self.env.pop(element.id, None)
                elif element_value is not None:
                    self._assign_target(element, element_value, lineno)

    # -- expressions ---------------------------------------------------

    def _scan_expr(self, node: ast.expr) -> None:
        """Walk an expression for calls, checks, and emit dicts.

        ``term_of`` on a BinOp already records its additive check
        sites and its calls, so the walk dispatches each *outermost*
        interesting node once and lets term construction recurse.
        """
        for expr in ast.walk(node):
            if isinstance(expr, ast.Compare):
                operands = [expr.left] + list(expr.comparators)
                for op, first, second in zip(
                    expr.ops, operands, operands[1:]
                ):
                    surface = _COMPARE_OPS.get(type(op))
                    if surface is None:
                        continue
                    self._note_check(
                        surface,
                        expr,
                        self.term_of(first),
                        self.term_of(second),
                    )
            elif isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.Add, ast.Sub)
            ):
                # Only top-level additions not already visited through
                # a parent term — term_of below is cheap and records
                # the check exactly once per site thanks to the walk
                # visiting every BinOp node.
                continue
            elif isinstance(expr, ast.Dict):
                self._emit_dict(expr)
        # One term pass over the outermost expression records each
        # additive check and each call exactly once; additions the pass
        # does not reach (inside comprehensions, lambdas, subscripts,
        # displays) are evaluated afterwards, so every one is checked.
        self.term_of(node)
        for expr in ast.walk(node):
            if isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.Add, ast.Sub)
            ):
                self.term_of(expr)

    def _emit_dict(self, node: ast.Dict) -> None:
        event = None
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "event"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                event = value.value
                break
        if event is None:
            return
        for key, value in zip(node.keys, node.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                continue
            unit = unit_of_name(key.value)
            if unit is None or key.value == "event":
                continue
            self.emit_fields.append(
                EmitField(
                    event=event,
                    fieldname=key.value,
                    lineno=value.lineno,
                    term=self.term_of(value),
                )
            )


def _class_attrs(tree: ast.Module, bindings) -> List[ClassAttr]:
    """Class-body attribute declarations of every top-level class.

    Values are evaluated in an empty scope (constants and imported
    unit names resolve; nothing else does), so an attribute's unit
    never depends on where in the module its class is defined.
    """
    probe = _UnitAnalyzer(tree, "<class-body>", None, bindings)
    out: List[ClassAttr] = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for statement in node.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            lineno = statement.lineno
            if isinstance(statement, ast.AnnAssign):
                target, value = statement.target, statement.value
            elif isinstance(statement, ast.Assign) and len(
                statement.targets
            ) == 1:
                target, value = statement.targets[0], statement.value
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name.startswith("__") and name.endswith("__"):
                if name == "__slots__":
                    out.extend(
                        ClassAttr(node.name, slot, lineno, None)
                        for slot in class_slots(node) or ()
                    )
                continue
            term = probe.term_of(value) if value is not None else None
            out.append(
                ClassAttr(
                    class_name=node.name,
                    attr=name,
                    lineno=lineno,
                    term=term,
                )
            )
    return out


def extract_units(
    tree: ast.Module, scopes: Sequence[Scope], bindings
) -> ModuleUnits:
    """Local unit facts of every scope (and class body) in one file.

    ``scopes`` and ``bindings`` come from the summary pass over the
    same file: its scope walk (qualnames join each record to its
    project-graph node by ``namespace::qualname``) and its
    fully-populated import map.
    """
    return ModuleUnits(
        functions=tuple(
            _UnitAnalyzer(node, qualname, class_name, bindings).run()
            for node, qualname, class_name in scopes
        ),
        class_attrs=tuple(_class_attrs(tree, bindings)),
    )
