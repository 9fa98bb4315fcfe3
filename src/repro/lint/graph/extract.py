"""The one per-file walk of ``repro lint`` (the ``--jobs``-parallel half).

:func:`extract_summary` condenses one parsed file into its
:class:`~repro.lint.graph.summary.ModuleSummary`.  It first collects
the file's :class:`~repro.lint.graph.summary.ImportTable`, then visits
each statement and expression of each scope (the module, and every
``def``, named by qualname) exactly once, in source order.  Per scope
it keeps one table of constructor-built locals (``sim = Simulator()``
binds ``sim`` to the class, for method-receiver resolution), one
binding per local name — its effect alias (``t = task`` makes ``t`` the
caller's ``task``; ``q = task.queue`` one level of field sensitivity)
and its unit term (``x = footprint_bytes`` makes ``x`` bytes) — and one
``try`` context, and it emits:

* one :class:`~repro.lint.graph.summary.CallRef` per call expression,
  in walk order, carrying the dotted and import-canonical name, the
  receiver class, the ``*args`` position, the caught exception types,
  the receiver alias, and per argument its callable descriptor, alias
  and unit term — the graph, the effect analysis and the unit analysis
  all read this one record (a ``UnitTerm(kind="call")`` indexes it);
* the summary facts: ``os.environ`` reads, built-in ``hash()`` calls,
  ``global`` writes, telemetry emits and event sites;
* the effect facts (function scopes only): provable mutations of
  parameter objects through aliases, captures of parameter objects
  into ``self``/globals/closures, capture-then-mutate flows, and raise
  sites with their ``try`` context;
* the unit facts: return, attribute-write, check (``+``/``-``,
  comparisons, ``+=``/``-=``) and telemetry emit-field sites, each
  with its symbolic unit term.

Rules where the three former walks disagreed, each pinned by a test:

* ``if TYPE_CHECKING:`` bodies are skipped — type-only code creates no
  runtime call, binding or fact;
* ``x += v`` keeps ``x``'s receiver class and unit term (the object,
  or a sum of like units, keeps its kind) but drops its effect alias
  (for immutables it rebinds, so no mutation through it is provable);
* calls inside assignment targets (``rows[m.group("id")] = ...``) and
  calls nested in comprehensions, lambdas, displays, subscripts and
  call receivers are recorded like every other call.

Receiver classes come only from ``name = Ctor(...)`` and ``with
Ctor(...) as name``; an unpacking target, loop variable, handler name
or ``del`` forgets its name's class.  Class bodies run in the scope
that defines them, but their bindings stay in the class namespace.
Control flow is walked linearly: branch bodies in order, later
bindings overriding earlier ones.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.dimflow.algebra import SCALAR, unit_of_name
from repro.lint.dimflow.model import (
    AttrWrite,
    CheckSite,
    ClassAttr,
    EmitField,
    ReturnSite,
    UnitFacts,
    UnitTerm,
)
from repro.lint.effects.model import (
    CATCH_ALL,
    TOP,
    CaptureMutation,
    FunctionEffects,
    ParamCapture,
    ParamMutation,
    RaiseSite,
)
from repro.lint.graph.summary import (
    MODULE_SCOPE,
    ArgRef,
    CallRef,
    ClassSummary,
    FunctionSummary,
    ImportTable,
    ModuleSummary,
    class_strings,
    dotted,
    is_type_checking_test,
)
from repro.units import UNIT_CONSTANTS, UNIT_RETURNS

__all__ = ["MUTATING_METHODS", "extract_summary"]

#: Method names that mutate their receiver in place (containers and
#: the common deque/set/dict surface).  Calling one through an alias
#: of a parameter is a provable mutation of the caller's object.
MUTATING_METHODS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "extendleft",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "reverse",
        "rotate",
        "setdefault",
        "sort",
        "update",
        "__setitem__",
        "__delitem__",
    }
)

#: Builtin annotations whose instances are immutable: a parameter so
#: annotated can be *stored* without retaining mutable state.
_IMMUTABLE_ANNOTATIONS = frozenset(
    {"int", "float", "str", "bool", "bytes", "complex", "frozenset"}
)

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

_ENV_READS = frozenset({"os.environ", "os.getenv", "os.environb"})

_Alias = Tuple[str, str, Tuple[str, ...]]  # (param, field, via chain)


def _known(unit: str) -> UnitTerm:
    return UnitTerm(kind="known", unit=unit)


def _is_immutable_annotation(annotation: Optional[ast.expr]) -> bool:
    if isinstance(annotation, ast.Name):
        return annotation.id in _IMMUTABLE_ANNOTATIONS
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        return annotation.value in _IMMUTABLE_ANNOTATIONS
    return False


def _target_names(target: ast.expr) -> List[str]:
    """Names bound by an assignment or ``for`` target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    return []


def _free_names(node: ast.AST) -> Set[str]:
    """Names loaded anywhere inside ``node`` (closure candidates)."""
    return {
        n.id
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


class _File:
    """Module-level accumulators of one file's walk."""

    def __init__(self, imports: ImportTable) -> None:
        self.imports = imports
        self.functions: List[FunctionSummary] = []
        self.classes: List[ClassSummary] = []
        self.aliases: List[Tuple[str, str]] = []
        self.string_tuples: List[Tuple[str, Tuple[str, ...]]] = []
        self.event_sites: List[Tuple[str, str, int]] = []
        self.defines_event_schemas = False

    def module_level_assign(self, node: ast.stmt) -> None:
        """Callable aliases, string tuples and the schema table."""
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None or len(targets) != 1:
            return
        target = targets[0]
        if not isinstance(target, ast.Name):
            return
        if target.id == "EVENT_SCHEMAS":
            self.defines_event_schemas = True
        if isinstance(value, (ast.Name, ast.Attribute)):
            alias = self.imports.resolve(value) or dotted(value)
            if alias is not None:
                self.aliases.append((target.id, alias))
        elif isinstance(value, (ast.Tuple, ast.List)) and value.elts:
            strings = []
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    strings.append(element.value)
                else:
                    return
            self.string_tuples.append((target.id, tuple(strings)))


class _Scope:
    """One scope's walk: a function, or the module (``node`` is then
    the :class:`ast.Module` and ``qualname`` is :data:`MODULE_SCOPE`)."""

    def __init__(
        self,
        file: _File,
        node: ast.AST,
        qualname: str,
        class_name: Optional[str] = None,
        is_toplevel: bool = False,
    ) -> None:
        self.file = file
        self.imports = file.imports
        self.node = node
        self.qualname = qualname
        self.class_name = class_name
        self.is_toplevel = is_toplevel
        args = getattr(node, "args", None)
        self.params: Tuple[str, ...] = ()
        self.kwonly: Tuple[str, ...] = ()
        self.immutable_params: Tuple[str, ...] = ()
        if args is not None:
            positional = list(args.posonlyargs) + list(args.args)
            self.params = tuple(a.arg for a in positional)
            self.kwonly = tuple(a.arg for a in args.kwonlyargs)
            self.immutable_params = tuple(
                a.arg
                for a in positional + list(args.kwonlyargs)
                if _is_immutable_annotation(a.annotation)
            )
        names = set(self.params) | set(self.kwonly)
        # -- the one binding table per local name ----------------------
        #: local name -> constructor canonical (method receivers).
        self.ctor_locals: Dict[str, str] = {}
        #: local name -> (param, field, via): which caller object the
        #: name denotes right now.  Params start aliased to themselves.
        self.alias: Dict[str, _Alias] = {n: (n, "", (n,)) for n in names}
        #: local name -> (self attr, capture line, via): locals whose
        #: object has been stored into a self attribute.
        self.captured: Dict[str, Tuple[str, int, Tuple[str, ...]]] = {}
        #: local name -> its unit term (params start as references to
        #: their own future signature unit).
        self.env: Dict[str, UnitTerm] = {
            n: UnitTerm(kind="param", name=n)
            for n in names
            if n not in ("self", "cls")
        }
        self.globals: Set[str] = set()
        # -- the one try context ---------------------------------------
        self.caught: Tuple[str, ...] = ()
        self.handler: Optional[Tuple[str, ...]] = None
        self.handler_vars: Dict[str, Tuple[str, ...]] = {}
        # -- facts -----------------------------------------------------
        self.calls: List[CallRef] = []
        self.env_reads: List[int] = []
        self.hash_calls: List[int] = []
        self.global_writes: List[Tuple[str, int]] = []
        self.emit_calls: List[int] = []
        self.mutations: List[ParamMutation] = []
        self.captures: List[ParamCapture] = []
        self.raises: List[RaiseSite] = []
        self.capture_mutations: List[CaptureMutation] = []
        self.returns: List[ReturnSite] = []
        self.attr_writes: List[AttrWrite] = []
        self.checks: List[CheckSite] = []
        self.emit_fields: List[EmitField] = []
        #: call node id -> its position in :attr:`calls`.
        self._index: Dict[int, int] = {}
        #: expression node id -> its unit term.  Every expression is
        #: evaluated under one binding state (its statement's), so a
        #: term computed once serves every later reader.
        self._terms: Dict[int, Optional[UnitTerm]] = {}

    # -- entry ---------------------------------------------------------

    def run(self, body: Sequence[ast.stmt]) -> FunctionSummary:
        self._body(body, ())
        return FunctionSummary(
            qualname=self.qualname,
            lineno=getattr(self.node, "lineno", 1),
            is_toplevel=self.is_toplevel,
            class_name=self.class_name,
            calls=tuple(self.calls),
            env_reads=tuple(self.env_reads),
            hash_calls=tuple(self.hash_calls),
            global_writes=tuple(self.global_writes),
            emit_calls=tuple(self.emit_calls),
            params=self.params,
            kwonly=self.kwonly,
            effects=(
                None
                if isinstance(self.node, ast.Module)
                else FunctionEffects(
                    immutable_params=self.immutable_params,
                    mutations=tuple(self.mutations),
                    captures=tuple(self.captures),
                    raises=tuple(self.raises),
                    capture_mutations=tuple(self.capture_mutations),
                )
            ),
            units=UnitFacts(
                returns=tuple(self.returns),
                attr_writes=tuple(self.attr_writes),
                checks=tuple(self.checks),
                emit_fields=tuple(self.emit_fields),
            ),
        )

    # -- statements ----------------------------------------------------

    def _body(
        self, statements: Sequence[ast.stmt], class_stack: Tuple[str, ...]
    ) -> None:
        for statement in statements:
            self._statement(statement, class_stack)

    def _statement(self, node: ast.stmt, class_stack: Tuple[str, ...]) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return  # bound up front by the import table
        if isinstance(node, ast.If) and is_type_checking_test(node.test):
            self._body(node.orelse, class_stack)  # type-only code
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._def(node, class_stack)
            return
        if isinstance(node, ast.ClassDef):
            self._class(node, class_stack)
            return
        if isinstance(node, ast.Global):
            self.globals.update(node.names)
            return
        if not class_stack and self.qualname == MODULE_SCOPE:
            self.file.module_level_assign(node)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._expression(node.target)
            self._expression(node.iter)
            for name in _target_names(node.target):
                self._drop(name)
            self._body(node.body + node.orelse, class_stack)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._expression(item.context_expr)
                if item.optional_vars is not None:
                    self._expression(item.optional_vars)
                if isinstance(item.optional_vars, ast.Name):
                    self._bind(
                        item.optional_vars.id, item.context_expr, node.lineno
                    )
            self._body(node.body, class_stack)
        elif isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            self._try(node, class_stack)
        else:
            # Every expression (targets, then values), then the stores.
            self._generic(node, class_stack)
            self._stores(node)

    def _stores(self, node: ast.stmt) -> None:
        """What a simple statement binds, stores, returns or raises."""
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._global_write(target, node.lineno)
                self._assign(target, node.value, node.lineno)
        elif isinstance(node, ast.AnnAssign):
            self._global_write(node.target, node.lineno)
            if node.value is not None or isinstance(node.target, ast.Name):
                self._assign(node.target, node.value, node.lineno)
        elif isinstance(node, ast.AugAssign):
            self._global_write(node.target, node.lineno)
            self._augassign(node)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._drop(target.id)
                else:
                    self._store(target, "delete", node.lineno)
        elif isinstance(node, ast.Return) and node.value is not None:
            if not (
                isinstance(node.value, ast.Constant) and node.value.value is None
            ):
                self.returns.append(
                    ReturnSite(node.lineno, self.term_of(node.value))
                )
        elif isinstance(node, ast.Raise):
            self._raise(node)

    def _generic(self, node: ast.AST, class_stack: Tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                self._statement(child, class_stack)
            elif isinstance(child, ast.expr):
                self._expression(child)
            else:  # match cases, patterns, ...
                self._generic(child, class_stack)

    def _def(
        self,
        node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
        class_stack: Tuple[str, ...],
    ) -> None:
        """A nested ``def``: decorators and defaults run here, the body
        is a scope of its own."""
        for expr in node.decorator_list + node.args.defaults + [
            default for default in node.args.kw_defaults if default is not None
        ]:
            self._expression(expr)
        name = node.name
        if self.qualname == MODULE_SCOPE:
            prefix = "".join(f"{cls}." for cls in class_stack)
        else:
            prefix = self.qualname + "."
        child = _Scope(
            self.file,
            node,
            prefix + name,
            class_name=class_stack[-1] if class_stack else None,
            is_toplevel=not class_stack and self.qualname == MODULE_SCOPE,
        )
        self.file.functions.append(child.run(node.body))
        if not class_stack:
            # A closure retains every enclosing object its body names
            # (a method of a class nested here is not recorded as one).
            shadowed = set(child.params) | set(child.kwonly)
            for free in sorted(_free_names(node) - shadowed):
                self._capture(free, node.lineno, f"closure {name}")
        self._drop(name)

    def _class(self, node: ast.ClassDef, class_stack: Tuple[str, ...]) -> None:
        """A class body runs here, but binds in its own namespace."""
        for expr in node.decorator_list + node.bases + [
            keyword.value for keyword in node.keywords
        ]:
            self._expression(expr)
        if not class_stack:
            self.file.classes.append(
                ClassSummary(
                    name=node.name,
                    lineno=node.lineno,
                    bases=tuple(
                        self.imports.resolve(base) or dotted(base) or "<unknown>"
                        for base in node.bases
                    ),
                    methods=tuple(
                        child.name
                        for child in node.body
                        if isinstance(
                            child, (ast.FunctionDef, ast.AsyncFunctionDef)
                        )
                    ),
                    memo_key=class_strings(node, "MEMO_KEY") or (),
                )
            )
        saved = (
            dict(self.ctor_locals),
            dict(self.alias),
            dict(self.captured),
            dict(self.env),
        )
        self._body(node.body, class_stack + (node.name,))
        self.ctor_locals, self.alias, self.captured, self.env = saved
        self._drop(node.name)

    def _try(self, node: ast.Try, class_stack: Tuple[str, ...]) -> None:
        caught, handler, handler_vars = (
            self.caught,
            self.handler,
            self.handler_vars,
        )
        types = [self._handler_types(h) for h in node.handlers]
        self.caught = caught + tuple(t for each in types for t in each)
        self._body(node.body, class_stack)
        self.caught = caught
        for except_handler, handler_types in zip(node.handlers, types):
            if except_handler.type is not None:
                self._expression(except_handler.type)
            self.handler_vars = dict(handler_vars)
            if except_handler.name is not None:
                self.handler_vars[except_handler.name] = handler_types
                self._drop(except_handler.name)
            self.handler = handler_types
            self._body(except_handler.body, class_stack)
        # orelse/finally run outside the protection of the handlers.
        self.handler, self.handler_vars = handler, handler_vars
        self._body(node.orelse + node.finalbody, class_stack)

    # -- bindings ------------------------------------------------------

    def _drop(self, name: str) -> None:
        self.ctor_locals.pop(name, None)
        self.alias.pop(name, None)
        self.captured.pop(name, None)
        self.env.pop(name, None)

    def _bind(
        self, name: str, value: ast.expr, lineno: int, *, ctor: bool = True
    ) -> None:
        """``name = value``: class, alias, capture and unit bookkeeping."""
        canonical = None
        if ctor and isinstance(value, ast.Call):
            canonical = self.imports.resolve(value.func) or dotted(value.func)
        if canonical is not None:
            self.ctor_locals[name] = canonical
        else:
            self.ctor_locals.pop(name, None)
        term = self.term_of(value)
        # A unit-suffixed name is a naming contract: binding it a bare
        # literal (``footprint_bytes = 4096``) or an unknown keeps the
        # suffix's dimension.  A value with its own evidence wins —
        # that flow is what the interprocedural rules are for.
        suffix = unit_of_name(name)
        if suffix is not None and (
            term is None or (term.kind == "known" and term.unit == SCALAR)
        ):
            term = _known(suffix)
        if term is not None:
            self.env[name] = term
        else:
            self.env.pop(name, None)
        source = self._alias_of(value)
        if name in self.globals:
            if source is not None and source[1] == "":
                self.captures.append(
                    ParamCapture(
                        param=source[0],
                        lineno=lineno,
                        via=source[2] + (name,),
                        dest=f"global {name}",
                    )
                )
            return  # a global target never becomes a local alias
        if source is not None:
            param, fieldname, via = source
            self.alias[name] = (param, fieldname, via + (name,))
        else:
            self.alias.pop(name, None)
        if isinstance(value, ast.Name) and value.id in self.captured:
            attr, cap_line, via = self.captured[value.id]
            self.captured[name] = (attr, cap_line, via + (name,))
        else:
            self.captured.pop(name, None)

    def _global_write(self, target: ast.expr, lineno: int) -> None:
        if isinstance(target, ast.Name) and target.id in self.globals:
            self.global_writes.append((target.id, lineno))

    def _assign(
        self, target: ast.expr, value: Optional[ast.expr], lineno: int
    ) -> None:
        if isinstance(target, ast.Name):
            if value is not None:
                self._bind(target.id, value, lineno)
            else:
                self._drop(target.id)
        elif isinstance(target, ast.Attribute):
            self._store(target, "store-attr", lineno)
            base = target.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                self._self_attr_store(target, value, lineno)
            self._attr_write(
                target, lineno, None if value is None else self.term_of(value)
            )
        elif isinstance(target, ast.Subscript):
            self._store(target, "store-index", lineno)
            base = target.value
            # ``self.attr[k] = param`` retains the object in a
            # self-owned container: a capture.
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id in ("self", "cls")
                and isinstance(value, ast.Name)
            ):
                self._capture(value.id, lineno, f"self.{base.attr}[...]")
        elif isinstance(target, (ast.Tuple, ast.List)):
            values: Sequence[Optional[ast.expr]] = [None] * len(target.elts)
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                value.elts
            ) == len(target.elts):
                values = value.elts
            for element, element_value in zip(target.elts, values):
                if isinstance(element, ast.Name) and element_value is not None:
                    self._bind(element.id, element_value, lineno, ctor=False)
                else:
                    self._assign(element, element_value, lineno)

    def _augassign(self, node: ast.AugAssign) -> None:
        target = node.target
        if isinstance(target, ast.Name):
            # ``x += v`` rebinds for immutables: honesty drops the alias
            # rather than guessing an in-place mutation.  The class and
            # the unit term stay.
            self.alias.pop(target.id, None)
            self.captured.pop(target.id, None)
        else:
            self._store(target, "augstore", node.lineno)
            if isinstance(target, ast.Attribute):
                self._attr_write(target, node.lineno, None)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            left = self._target_term(target)
            right = self.term_of(node.value)
            if left is not None and right is not None:
                self.checks.append(
                    CheckSite(
                        op="+=" if isinstance(node.op, ast.Add) else "-=",
                        lineno=node.lineno,
                        col=node.col_offset + 1,
                        left=left,
                        right=right,
                    )
                )

    def _attr_write(
        self, target: ast.Attribute, lineno: int, term: Optional[UnitTerm]
    ) -> None:
        """Record a store on the receiver or a constructor-bound local;
        an augmented or unpacking store has no ``term``."""
        base = target.value
        if not isinstance(base, ast.Name):
            return
        if base.id in ("self", "cls"):
            owner: Optional[str] = self.class_name
        else:
            owner = self.ctor_locals.get(base.id)
        if owner is not None:
            self.attr_writes.append(AttrWrite(owner, target.attr, lineno, term))

    # -- effect stores -------------------------------------------------

    def _alias_of(self, expr: ast.expr) -> Optional[_Alias]:
        """The ``(param, field, via)`` an expression denotes, if any."""
        if isinstance(expr, ast.Name):
            return self.alias.get(expr.id)
        if isinstance(expr, ast.Attribute) and isinstance(
            expr.value, ast.Name
        ):
            base = self.alias.get(expr.value.id)
            if base is not None and base[1] == "":
                param, _, via = base
                step = via[:-1] + (f"{via[-1]}.{expr.attr}",)
                return (param, expr.attr, step)
        return None

    def _store(self, target: ast.expr, kind: str, lineno: int) -> None:
        """Record a mutation implied by storing into ``target``."""
        if isinstance(target, ast.Attribute):
            base = target.value
            if isinstance(base, ast.Name):
                entry = self.alias.get(base.id)
                if entry is not None:
                    param, fieldname, via = entry
                    self.mutations.append(
                        ParamMutation(
                            param=param,
                            field=target.attr if fieldname == "" else fieldname,
                            lineno=lineno,
                            via=via,
                            kind=kind if fieldname == "" else "store-attr-deep",
                        )
                    )
                return
            deep = self._alias_of(base)
            if deep is not None:
                self.mutations.append(
                    ParamMutation(
                        param=deep[0],
                        field=deep[1],
                        lineno=lineno,
                        via=deep[2],
                        kind="store-attr-deep",
                    )
                )
        elif isinstance(target, ast.Subscript):
            entry = self._alias_of(target.value)
            if entry is not None:
                self.mutations.append(
                    ParamMutation(
                        param=entry[0],
                        field=entry[1],
                        lineno=lineno,
                        via=entry[2],
                        kind="store-index" if kind != "delete" else "delete",
                    )
                )
            if isinstance(target.value, ast.Name):
                self._note_captured_mutation(
                    target.value.id, lineno, "store-index"
                )

    def _note_captured_mutation(
        self, name: str, lineno: int, kind: str
    ) -> None:
        entry = self.captured.get(name)
        if entry is not None:
            attr, cap_line, via = entry
            self.capture_mutations.append(
                CaptureMutation(
                    attr=attr,
                    capture_lineno=cap_line,
                    lineno=lineno,
                    name=name,
                    via=via,
                    kind=kind,
                )
            )

    def _self_attr_store(
        self, target: ast.Attribute, value: Optional[ast.expr], lineno: int
    ) -> None:
        """``self.<attr> = value``: record captures of params/locals."""
        attr = target.attr
        if isinstance(value, ast.Name):
            self._capture(value.id, lineno, f"self.{attr}")
            # Any bare local stored on self starts capture tracking —
            # mutating it later edits the stored object in place.
            self.captured.setdefault(value.id, (attr, lineno, (value.id,)))
        elif isinstance(value, ast.Lambda):
            for name in sorted(_free_names(value)):
                self._capture(name, lineno, f"self.{attr}")

    def _capture(self, name: str, lineno: int, dest: str) -> None:
        """Record ``name`` stored into ``dest`` when it is a whole
        parameter object (the receiver itself is never a capture)."""
        entry = self.alias.get(name)
        if entry is not None and entry[1] == "" and entry[0] not in (
            "self",
            "cls",
        ):
            self.captures.append(
                ParamCapture(param=entry[0], lineno=lineno, via=entry[2], dest=dest)
            )

    # -- raises --------------------------------------------------------

    def _handler_types(self, handler: ast.ExceptHandler) -> Tuple[str, ...]:
        if handler.type is None:
            return (CATCH_ALL,)
        nodes = (
            handler.type.elts
            if isinstance(handler.type, ast.Tuple)
            else [handler.type]
        )
        names = []
        for type_node in nodes:
            resolved = self.imports.resolve(type_node) or dotted(type_node)
            names.append(resolved if resolved is not None else TOP)
        return tuple(names)

    def _raise(self, node: ast.Raise) -> None:
        exc = node.exc
        if exc is None or (
            isinstance(exc, ast.Name) and exc.id in self.handler_vars
        ):
            # A re-raise propagates whatever the handler caught.
            if exc is None:
                types = self.handler if self.handler is not None else (TOP,)
            else:
                types = self.handler_vars[exc.id]
            for type_name in types:
                self.raises.append(
                    RaiseSite(type_name, node.lineno, self.caught, "reraise")
                )
            return
        if isinstance(exc, ast.Call):
            type_name = self.imports.resolve(exc.func) or dotted(exc.func)
        elif isinstance(exc, ast.Name) and (
            exc.id in self.alias or exc.id in self.ctor_locals
        ):
            type_name = None  # a local is an *instance*, not a class
        else:
            type_name = self.imports.resolve(exc) or dotted(exc)
        self.raises.append(
            RaiseSite(
                type_name if type_name is not None else TOP,
                node.lineno,
                self.caught,
            )
        )

    # -- expressions ---------------------------------------------------

    def _expression(self, node: ast.expr) -> None:
        """Every fact one expression contributes, each recorded once.

        Lambda bodies and comprehensions included: expressions cannot
        contain statements, so a plain walk stays inside the scope.
        Calls are numbered in walk order before any is described, so
        an argument's term can name a nested call's slot.
        """
        nodes = list(ast.walk(node))
        calls = [sub for sub in nodes if isinstance(sub, ast.Call)]
        for position, call in enumerate(calls, start=len(self.calls)):
            self._index[id(call)] = position
        for sub in nodes:
            if isinstance(sub, ast.Call):
                self.calls.append(self._call(sub))  # lands at its index
            elif isinstance(sub, (ast.Attribute, ast.Name)):
                if self.imports.resolve(sub) in _ENV_READS:
                    self.env_reads.append(sub.lineno)
            elif isinstance(sub, ast.Dict):
                self._dict(sub)
            elif isinstance(sub, ast.Compare):
                operands = [sub.left] + list(sub.comparators)
                for op, left, right in zip(sub.ops, operands, operands[1:]):
                    surface = _COMPARE_OPS.get(type(op))
                    if surface is not None:
                        self._note_check(
                            surface, sub, self.term_of(left), self.term_of(right)
                        )
            elif isinstance(sub, ast.BinOp) and isinstance(
                sub.op, (ast.Add, ast.Sub)
            ):
                self.term_of(sub)  # notes the check site

    def _call(self, node: ast.Call) -> CallRef:
        func = node.func
        text = dotted(func)
        canonical = self.imports.resolve(func)
        if text == "hash" and canonical is None:
            self.hash_calls.append(node.lineno)
        receiver_class: Optional[str] = None
        receiver: Optional[ArgRef] = None
        if isinstance(func, ast.Attribute):
            base = func.value
            if func.attr in MUTATING_METHODS:
                entry = self._alias_of(base)
                if entry is not None:
                    self.mutations.append(
                        ParamMutation(
                            param=entry[0],
                            field=entry[1],
                            lineno=node.lineno,
                            via=entry[2],
                            kind=f"call:{func.attr}",
                        )
                    )
                if isinstance(base, ast.Name):
                    self._note_captured_mutation(
                        base.id, node.lineno, f"call:{func.attr}"
                    )
            if isinstance(base, ast.Name):
                receiver_class = self.ctor_locals.get(base.id)
                entry = self.alias.get(base.id)
                if entry is not None:
                    receiver = ArgRef(
                        kind="name", dotted=base.id, alias=(entry[0], entry[1])
                    )
            # ``self.<attr>.append(param)``: retained in a self-owned
            # container — a capture of the argument.
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id in ("self", "cls")
                and func.attr in ("append", "add", "appendleft", "insert")
            ):
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        self._capture(
                            arg.id, node.lineno, f"self.{base.attr}[...]"
                        )
        if text is not None and text.rpartition(".")[2] == "emit":
            self.emit_calls.append(node.lineno)
        if canonical is not None and canonical.rpartition(".")[2] == (
            "TelemetryWriter"
        ):
            self.emit_calls.append(node.lineno)
        elif canonical is None and text == "TelemetryWriter":
            self.emit_calls.append(node.lineno)
        for keyword in node.keywords:
            if (
                keyword.arg == "event"
                and text is not None
                and text.rpartition(".")[2] == "read_telemetry"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, str)
            ):
                self.file.event_sites.append(
                    (keyword.value.value, "filter", keyword.value.lineno)
                )
        star = next(
            (i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)),
            None,
        )
        return CallRef(
            dotted=text,
            canonical=canonical,
            receiver_class=receiver_class,
            lineno=node.lineno,
            args=tuple(self._arg(arg) for arg in node.args),
            kwargs=tuple(
                (keyword.arg, self._arg(keyword.value))
                for keyword in node.keywords
                if keyword.arg is not None
            ),
            star=star,
            caught=self.caught,
            receiver=receiver,
        )

    def _arg(self, node: ast.expr) -> ArgRef:
        entry = self._alias_of(node)
        alias = (entry[0], entry[1]) if entry is not None else None
        unit = self.term_of(node)
        if isinstance(node, (ast.Name, ast.Attribute)):
            return ArgRef(
                kind="name" if isinstance(node, ast.Name) else "attribute",
                dotted=dotted(node),
                canonical=self.imports.resolve(node),
                alias=alias,
                unit=unit,
            )
        if isinstance(node, ast.Lambda):
            kind = "lambda"
        elif isinstance(node, ast.Call):
            kind = "call"
        elif isinstance(node, ast.Constant):
            kind = "constant"
        else:
            kind = "other"
        return ArgRef(kind=kind, alias=alias, unit=unit)

    def _dict(self, node: ast.Dict) -> None:
        """Telemetry event sites, and the unit of every suffixed field
        of an emitted event."""
        event = None
        for key, value in zip(node.keys, node.values):
            if (
                isinstance(key, ast.Constant)
                and key.value == "event"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                self.file.event_sites.append((value.value, "emit", value.lineno))
                if event is None:
                    event = value.value
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
                EmitField(event, key.value, value.lineno, self.term_of(value))
            )

    # -- unit terms ----------------------------------------------------

    def term_of(self, node: ast.expr) -> Optional[UnitTerm]:
        """Symbolic unit term of an expression; ``None`` = no evidence."""
        key = id(node)
        if key not in self._terms:
            self._terms[key] = self._term_of(node)
        return self._terms[key]

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
        if isinstance(node, (ast.Name, ast.Attribute)):
            canonical = self.imports.resolve(node)
            if canonical in UNIT_CONSTANTS:
                return _known(UNIT_CONSTANTS[canonical])
            unit = unit_of_name(
                node.id if isinstance(node, ast.Name) else node.attr
            )
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
        canonical = self.imports.resolve(node.func)
        text = dotted(node.func)
        if (
            text in _IDENTITY_CONVERSIONS
            and canonical is None
            and len(node.args) == 1
        ):
            return self.term_of(node.args[0])
        known = UNIT_RETURNS.get(canonical or "")
        if known is None and canonical is None and text is not None:
            known = UNIT_RETURNS.get(text)
        if known is not None:
            return _known(known)
        return UnitTerm(kind="call", index=self._index.get(id(node), -1))

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


def _class_attrs(tree: ast.Module, file: _File) -> List[ClassAttr]:
    """Class-body attribute declarations of every top-level class.

    Values are evaluated in an empty scope (constants and imported
    unit names resolve; nothing else does), so an attribute's unit
    never depends on where in the module its class is defined.
    """
    probe = _Scope(file, tree, "<class-body>")
    out: List[ClassAttr] = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for statement in node.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
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
                        ClassAttr(node.name, slot, statement.lineno, None)
                        for slot in class_strings(node, "__slots__") or ()
                    )
                continue
            term = probe.term_of(value) if value is not None else None
            out.append(ClassAttr(node.name, name, statement.lineno, term))
    return out


def extract_summary(
    tree: ast.Module,
    display_path: str,
    layer: str,
) -> ModuleSummary:
    """Condense one parsed file into its :class:`ModuleSummary`."""
    imports = ImportTable(tree, display_path)
    file = _File(imports)
    file.functions.append(_Scope(file, tree, MODULE_SCOPE).run(tree.body))
    return ModuleSummary(
        path=display_path,
        module=imports.module,
        layer=layer,
        imports=tuple(sorted(imports.map.items())),
        star_imports=tuple(imports.stars),
        functions=tuple(file.functions),
        classes=tuple(file.classes),
        aliases=tuple(file.aliases),
        string_tuples=tuple(file.string_tuples),
        event_sites=tuple(file.event_sites),
        defines_event_schemas=file.defines_event_schemas,
        class_attrs=tuple(_class_attrs(tree, file)),
    )
