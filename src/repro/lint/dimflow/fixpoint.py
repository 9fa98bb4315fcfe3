"""Interprocedural unit inference: SCC fixpoint over the call graph.

:class:`UnitAnalysis` runs on the shared interprocedural core
(:class:`~repro.lint.graph.dataflow.Interprocedural`: function table,
the graph's resolved calls, argument binding, SCC order, fixpoint
driver) and contributes only its lattice and transfer functions,
computing one :class:`~repro.lint.dimflow.model.UnitSignature` per
function from every scope's local
:class:`~repro.lint.dimflow.model.UnitFacts`, the argument terms on
its calls, and every file's class-body attribute units:

* **declared** parameter units come from ``repro.units.UNIT_PARAMS``
  (which wins) or the ``_seconds``/``_bytes``/... name-suffix
  convention, and are *contracts*: call sites never widen them —
  an argument whose unit disagrees is an RPR810 finding instead;
* **inferred** parameter units are the lattice join of every resolved
  call site's argument unit (dimensionless literals contribute
  nothing; two different concrete dimensions join to the honest
  :data:`~repro.lint.dimflow.model.TOP_UNIT`);
* **return** units join the evaluated ``return`` sites — ``None`` as
  soon as any site is unknown, ``⊤`` on conflict, and fixed by
  ``repro.units.UNIT_RETURNS`` when the function is declared there.

Scheduling uses the core's driver in both directions: returns settle
one SCC at a time callees first, then argument units are pushed one
SCC at a time callers first, and the pair repeats until nothing
moves.  Every slot climbs a finite three-tier lattice (unknown ->
concrete -> ``⊤``) monotonically, so the loop terminates.

Functions listed in ``repro.units.UNIT_POLYMORPHIC`` are exempt from
all of it: their parameters accept any dimension, so sites neither pin
them nor get checked against them.

Provenance is kept per ``(function, parameter, unit)`` — the
deterministically-first call site that contributed the unit — so
:meth:`UnitAnalysis.flow_witness` can walk an argument's term back
through inferred parameters to a concrete origin and findings can
print the full propagation chain, RPR601-style.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.lint.dimflow.algebra import (
    SCALAR,
    mul_units,
    pow_unit,
    unit_of_name,
)
from repro.lint.dimflow.model import (
    TOP_UNIT,
    ClassAttr,
    UnitFacts,
    UnitSignature,
    UnitTerm,
)
from repro.lint.graph.dataflow import Callees, Interprocedural
from repro.lint.graph.summary import CallRef, ModuleSummary
from repro.units import UNIT_PARAMS, UNIT_POLYMORPHIC, UNIT_RETURNS

__all__ = ["AttrEvidence", "UnitAnalysis"]


@dataclass(frozen=True)
class AttrEvidence:
    """One unit observation for a class attribute: an assignment whose
    value had a known dimension, or the attribute's own name suffix."""

    unit: str
    label: str
    path: str
    lineno: int
    layer: str = ""


def _join(left: Optional[str], right: Optional[str]) -> Optional[str]:
    """Lattice join: unknown < concrete dimension < ``⊤``."""
    if left is None:
        return right
    if right is None or left == right:
        return left
    return TOP_UNIT


#: Per-call resolution: the return unit ``UNIT_RETURNS`` fixes (if any)
#: and the resolved callees that argument units flow into.
_CallInfo = Tuple[Optional[str], Tuple[Tuple[str, Optional[str]], ...]]


class UnitAnalysis(Interprocedural):
    """Unit signatures for every function in a linted corpus."""

    def __init__(self, graph, summaries: Sequence[ModuleSummary]) -> None:
        super().__init__(graph, lambda function: function.units)
        self._class_attrs: List[Tuple[str, str, str, Tuple[ClassAttr, ...]]] = [
            (
                summary.module or summary.path,
                summary.path,
                summary.layer,
                summary.class_attrs,
            )
            for summary in summaries
        ]
        self._call_info: Dict[str, Tuple[_CallInfo, ...]] = {
            key: tuple(
                self._call_kind(call, targets)
                for call, targets in self.calls(key)
            )
            for key in self._records
        }
        self._params: Dict[str, Dict[str, str]] = {}
        self._returns: Dict[str, Optional[str]] = {}
        self._declared: Dict[str, Tuple[str, ...]] = {}
        self._fixed_returns: Dict[str, str] = {}
        self._polymorphic: Dict[str, bool] = {}
        self._provenance: Dict[
            Tuple[str, str, str], Tuple[str, int, Optional[UnitTerm]]
        ] = {}
        for key in self.keys():
            self._seed(key)
        while self._solve(self._update_returns) | self._solve(
            self._push_arguments, callers_first=True
        ):
            pass
        self._signatures: Dict[str, UnitSignature] = {
            key: UnitSignature(
                key=key,
                params=tuple(sorted(self._params[key].items())),
                declared=self._declared[key],
                returns=self._returns[key],
                polymorphic=self._polymorphic[key],
            )
            for key in self._records
        }
        self._attr_evidence: Dict[Tuple[str, str], List[AttrEvidence]] = {}
        self._collect_attr_evidence()

    # -- public queries ------------------------------------------------

    def facts(self, key: str) -> Optional[UnitFacts]:
        return self._records.get(key)

    def signature(self, key: str) -> UnitSignature:
        found = self._signatures.get(key)
        if found is not None:
            return found
        return UnitSignature(key=key)

    def canonical_name(self, key: str) -> str:
        """``namespace.qualname`` — the UNIT_* table lookup key."""
        namespace, _, qualname = key.partition("::")
        return f"{namespace}.{qualname}"

    def call_edges(
        self, key: str
    ) -> List[Tuple[CallRef, Optional[str], Optional[str]]]:
        """``(call, callee, constructor)`` per resolved callee of each
        recorded call; ``(call, None, None)`` when units flow nowhere."""
        if key not in self._records:
            return []
        out: List[Tuple[CallRef, Optional[str], Optional[str]]] = []
        calls = self._nodes[key].summary.calls
        for call, (_, callees) in zip(calls, self._call_info[key]):
            out.extend((call, callee, ctor) for callee, ctor in callees)
            if not callees:
                out.append((call, None, None))
        return out

    def evaluate(self, key: str, term: Optional[UnitTerm]) -> Optional[str]:
        """Post-fixpoint unit of ``term`` in ``key``'s frame.

        ``None`` = no evidence; ``⊤`` = conflicting evidence.  Rules
        must treat both as silence.
        """
        if term is None:
            return None
        if term.kind == "known":
            return term.unit
        if term.kind == "param":
            if self._polymorphic.get(key, False):
                return None
            return self._params.get(key, {}).get(term.name)
        if term.kind == "call":
            return self._call_return(key, term.index)
        if term.kind == "product":
            result = SCALAR
            for factor, exponent in term.factors:
                unit = self.evaluate(key, factor)
                if unit is None:
                    return None
                if unit == TOP_UNIT:
                    return TOP_UNIT
                result = mul_units(result, pow_unit(unit, exponent))
            return result
        return None

    def flow_witness(
        self, key: str, term: Optional[UnitTerm], unit: str
    ) -> Tuple[str, ...]:
        """Call path (origin first, ``key`` last) explaining how the
        unit ``unit`` reached ``term`` in ``key``'s frame.

        Walks parameter references back through the recorded
        provenance until a concrete origin (or a cycle) stops it; a
        term that is already locally concrete yields ``(key,)``.
        """
        path = [key]
        seen = {key}
        current_key, current_term = key, term
        while current_term is not None and current_term.kind == "param":
            entry = self._provenance.get(
                (current_key, current_term.name, unit)
            )
            if entry is None:
                break
            caller, _, caller_term = entry
            if caller in seen:
                break
            path.append(caller)
            seen.add(caller)
            current_key, current_term = caller, caller_term
        return tuple(reversed(path))

    def attribute_evidence(
        self,
    ) -> Dict[Tuple[str, str], List[AttrEvidence]]:
        """``(canonical class, attr)`` -> every unit observation."""
        return self._attr_evidence

    # -- manifest ------------------------------------------------------

    def to_json(self) -> str:
        """The ``--units-output`` manifest (stable, sorted)."""
        functions: Dict[str, Dict] = {}
        for key in self.keys():
            signature = self._signatures[key]
            entry: Dict = {}
            if signature.polymorphic:
                entry["polymorphic"] = True
            params = {
                name: unit for name, unit in signature.params if unit
            }
            if params:
                entry["params"] = params
            if signature.declared:
                entry["declared"] = sorted(signature.declared)
            if signature.returns:
                entry["returns"] = signature.returns
            if entry:
                functions[key] = entry
        attributes: Dict[str, str] = {}
        for (class_name, attr), evidence in sorted(
            self._attr_evidence.items()
        ):
            joined: Optional[str] = None
            for item in evidence:
                if item.unit and item.unit != SCALAR:
                    joined = _join(joined, item.unit)
            if joined:
                attributes[f"{class_name}.{attr}"] = joined
        document = {
            "version": 1,
            "functions": functions,
            "attributes": attributes,
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"

    # -- calls ---------------------------------------------------------

    def _call_kind(self, call: CallRef, targets: Callees) -> _CallInfo:
        """A ``UNIT_RETURNS``-declared callable returns its table unit
        and a ``UNIT_POLYMORPHIC`` one accepts any unit, so neither
        takes argument units; any other resolved callee does."""
        canonical = call.canonical or call.dotted or ""
        if canonical in UNIT_RETURNS:
            return UNIT_RETURNS[canonical], ()
        if canonical in UNIT_POLYMORPHIC or not targets:
            return None, ()
        (callee, ctor), *_ = targets
        if ctor is None:
            name = self.canonical_name(callee)
            if name in UNIT_RETURNS:
                return UNIT_RETURNS[name], ()
            if name in UNIT_POLYMORPHIC:
                return None, ()
        return None, targets

    def _call_return(self, key: str, index: int) -> Optional[str]:
        infos = self._call_info.get(key, ())
        if not 0 <= index < len(infos):
            return None  # a class-body probe's call, or no such call
        fixed, callees = infos[index]
        if fixed is not None:
            return fixed
        if len(callees) == 1 and callees[0][1] is None:
            return self._returns.get(callees[0][0])
        return None  # unknown callee, or a constructor (an instance)

    # -- fixpoint ------------------------------------------------------

    def _seed(self, key: str) -> None:
        function = self._nodes[key].summary
        canonical = self.canonical_name(key)
        polymorphic = canonical in UNIT_POLYMORPHIC
        self._polymorphic[key] = polymorphic
        declared_table = UNIT_PARAMS.get(canonical, {})
        params: Dict[str, str] = {}
        declared: List[str] = []
        if not polymorphic:
            for name in function.params + function.kwonly:
                if name in ("self", "cls"):
                    continue
                unit = declared_table.get(name) or unit_of_name(name)
                if unit is not None:
                    params[name] = unit
                    declared.append(name)
        self._params[key] = params
        self._declared[key] = tuple(sorted(declared))
        if canonical in UNIT_RETURNS and not polymorphic:
            self._fixed_returns[key] = UNIT_RETURNS[canonical]
            self._returns[key] = UNIT_RETURNS[canonical]
        else:
            self._returns[key] = None

    def _update_returns(self, key: str) -> bool:
        updated = self._compute_returns(key)
        if updated == self._returns[key]:
            return False
        self._returns[key] = updated
        return True

    def _compute_returns(self, key: str) -> Optional[str]:
        if key in self._fixed_returns:
            return self._fixed_returns[key]
        if self._polymorphic[key]:
            return None
        facts = self._records[key]
        if not facts.returns:
            return None
        concrete: Optional[str] = None
        saw_scalar = False
        for site in facts.returns:
            unit = self.evaluate(key, site.term)
            if unit is None:
                return None
            if unit == TOP_UNIT:
                return TOP_UNIT
            if unit == SCALAR:
                saw_scalar = True
                continue
            concrete = _join(concrete, unit)
        if concrete is not None:
            return concrete
        return SCALAR if saw_scalar else None

    def _push_arguments(self, key: str) -> bool:
        changed = False
        calls = self._nodes[key].summary.calls
        for call, (_, callees) in zip(calls, self._call_info[key]):
            for callee_key, ctor in callees:
                if self._polymorphic[callee_key]:
                    continue
                declared = self._declared[callee_key]
                callee_params = self._params[callee_key]
                for param, arg in self.bind(call, callee_key, ctor):
                    if param in declared:
                        continue  # a contract — mismatches are findings
                    term = arg.unit
                    unit = self.evaluate(key, term)
                    if unit is None or unit in (SCALAR, TOP_UNIT):
                        continue
                    joined = _join(callee_params.get(param), unit)
                    if joined != callee_params.get(param):
                        callee_params[param] = joined  # type: ignore[assignment]
                        changed = True
                    prov_key = (callee_key, param, unit)
                    entry = (key, call.lineno, term)
                    existing = self._provenance.get(prov_key)
                    if existing is None or (entry[0], entry[1]) < (
                        existing[0],
                        existing[1],
                    ):
                        self._provenance[prov_key] = entry
        return changed

    # -- attributes ----------------------------------------------------

    def _canonical_class(self, namespace: str, name: str) -> str:
        resolved = self._graph.resolve_type(namespace, name)
        if resolved is not None:
            return resolved
        if "." in name:
            return name
        return f"{namespace}.{name}"

    def _collect_attr_evidence(self) -> None:
        def note(
            class_name: str, attr: str, evidence: AttrEvidence
        ) -> None:
            self._attr_evidence.setdefault((class_name, attr), []).append(
                evidence
            )

        for namespace, path, layer, class_attrs in self._class_attrs:
            for record in class_attrs:
                canonical = self._canonical_class(
                    namespace, record.class_name
                )
                suffix = unit_of_name(record.attr)
                if suffix is not None:
                    note(
                        canonical,
                        record.attr,
                        AttrEvidence(
                            unit=suffix,
                            label="name suffix",
                            path=path,
                            lineno=record.lineno,
                            layer=layer,
                        ),
                    )
                if record.term is None:
                    continue
                unit = self.evaluate("", record.term)
                if unit and unit != TOP_UNIT and (
                    suffix is None or unit != suffix
                ):
                    note(
                        canonical,
                        record.attr,
                        AttrEvidence(
                            unit=unit,
                            label=f"class body of {canonical}",
                            path=path,
                            lineno=record.lineno,
                            layer=layer,
                        ),
                    )
        for key in self.keys():
            facts = self._records[key]
            namespace = self._nodes[key].namespace
            path = self.node_path(key)
            layer = self.node_layer(key)
            for write in facts.attr_writes:
                canonical = self._canonical_class(
                    namespace, write.class_name
                )
                suffix = unit_of_name(write.attr)
                seen = self._attr_evidence.get((canonical, write.attr))
                if suffix is not None and not any(
                    item.label == "name suffix" for item in (seen or [])
                ):
                    note(
                        canonical,
                        write.attr,
                        AttrEvidence(
                            unit=suffix,
                            label="name suffix",
                            path=path,
                            lineno=write.lineno,
                            layer=layer,
                        ),
                    )
                unit = self.evaluate(key, write.term)
                if unit and unit != TOP_UNIT:
                    note(
                        canonical,
                        write.attr,
                        AttrEvidence(
                            unit=unit,
                            label=self.node_label(key),
                            path=path,
                            lineno=write.lineno,
                            layer=layer,
                        ),
                    )
        for evidence in self._attr_evidence.values():
            evidence.sort(key=lambda e: (e.path, e.lineno, e.unit, e.label))
