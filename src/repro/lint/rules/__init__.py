"""Rule registry for ``repro lint``.

Every shipped rule is listed in :data:`RULE_CLASSES`; the two
engine-emitted meta findings (unparseable file, malformed suppression)
are described in :data:`META_RULES` so ``--list-rules``, ``--rule``
filtering, and the docs-parity test cover them too.  Ids of rules
folded into another (:data:`~repro.lint.engine.RULE_ALIASES`) are
accepted by ``--rule`` and resolve to the surviving rule.  The
catalogue in ``docs/static_analysis.md`` is compared against
:func:`rule_catalogue` by ``tests/lint/test_docs_parity.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.lint.engine import RULE_ALIASES
from repro.lint.rules.api import LayerImportRule, MissingAllRule
from repro.lint.rules.base import Rule
from repro.lint.rules.determinism import DETERMINISTIC_LAYERS, UnseededRandomRule
from repro.lint.rules.effects import (
    DeterministicBareExceptionRule,
    PolicyHookArgumentMutationRule,
    PolicyHookGlobalWriteRule,
    PolicyHookReferenceRetentionRule,
    WorkerExceptionEscapeRule,
)
from repro.lint.rules.hygiene import (
    BroadExceptRule,
    MutableDefaultRule,
    SumOverSetRule,
)
from repro.lint.rules.memosafety import FrozenMutationRule, MemoFieldMutationRule
from repro.lint.rules.poolsafety import (
    NonPicklableSubmissionRule,
    WorkerGlobalMutationRule,
    WorkerTelemetryRule,
)
from repro.lint.rules.telemetry import OrphanSchemaRule, UnregisteredEventRule
from repro.lint.rules.transitive import (
    TransitiveEntropyRule,
    TransitiveEnvironmentRule,
    TransitiveHashRule,
    TransitiveWallClockRule,
)
from repro.lint.rules.unitflow import (
    ArgumentUnitMismatchRule,
    ConflictingAttributeUnitsRule,
    InconsistentReturnUnitsRule,
    MixedUnitsRule,
    TelemetryFieldUnitRule,
)

__all__ = [
    "DETERMINISTIC_LAYERS",
    "META_RULES",
    "RULE_ALIASES",
    "RULE_CLASSES",
    "RULE_FAMILIES",
    "Rule",
    "all_rule_ids",
    "build_rules",
    "rule_catalogue",
]

#: Every rule class, in id order.
RULE_CLASSES: Tuple[type, ...] = (
    UnseededRandomRule,
    FrozenMutationRule,
    MemoFieldMutationRule,
    UnregisteredEventRule,
    OrphanSchemaRule,
    BroadExceptRule,
    MutableDefaultRule,
    SumOverSetRule,
    MissingAllRule,
    LayerImportRule,
    TransitiveWallClockRule,
    TransitiveEntropyRule,
    TransitiveEnvironmentRule,
    TransitiveHashRule,
    NonPicklableSubmissionRule,
    WorkerGlobalMutationRule,
    WorkerTelemetryRule,
    PolicyHookArgumentMutationRule,
    PolicyHookReferenceRetentionRule,
    PolicyHookGlobalWriteRule,
    WorkerExceptionEscapeRule,
    DeterministicBareExceptionRule,
    ArgumentUnitMismatchRule,
    InconsistentReturnUnitsRule,
    ConflictingAttributeUnitsRule,
    MixedUnitsRule,
    TelemetryFieldUnitRule,
)

#: Engine-emitted findings: id -> (title, family, severity, autofixable).
META_RULES: Dict[str, Tuple[str, str, str, bool]] = {
    "RPR001": ("file does not parse", "engine", "error", False),
    "RPR002": ("malformed suppression comment", "engine", "error", False),
}

#: Family name -> one-line description (docs parity checks these too).
RULE_FAMILIES: Dict[str, str] = {
    "engine": "findings the engine itself emits",
    "determinism": "randomness is seeded, in every layer",
    "memo-safety": "memo keys stay immutable after construction",
    "telemetry": "EVENT_SCHEMAS and emit sites agree both ways",
    "executor-hygiene": "failure signals and float ordering survive",
    "api-hygiene": "explicit exports and one-way layering",
    "transitive-determinism": "no call path from the model layers to a sink",
    "pool-safety": "everything crossing the process pool pickles cleanly",
    "plugin-contract": "policy hooks observe simulator state, never edit it",
    "exception-flow": "only repro.errors types cross process boundaries",
    "dimflow": "seconds, bytes, and counts never mix, across calls too",
}


def all_rule_ids() -> List[str]:
    """Every known rule id (shipped rules plus engine meta findings)."""
    return sorted([cls.id for cls in RULE_CLASSES] + list(META_RULES))


def rule_catalogue() -> List[Dict[str, object]]:
    """Stable description of every rule, for --list-rules and docs parity."""
    rows: List[Dict[str, object]] = []
    for rule_id, (title, family, severity, autofixable) in META_RULES.items():
        rows.append(
            {
                "id": rule_id,
                "title": title,
                "family": family,
                "severity": severity,
                "autofixable": autofixable,
            }
        )
    for cls in RULE_CLASSES:
        rows.append(
            {
                "id": cls.id,
                "title": cls.title,
                "family": cls.family,
                "severity": cls.severity,
                "autofixable": cls.autofixable,
            }
        )
    rows.sort(key=lambda row: str(row["id"]))
    return rows


def build_rules(
    only: Optional[Sequence[str]] = None,
    telemetry_schemas: Optional[Set[str]] = None,
) -> List[Rule]:
    """Instantiate the rule set.

    Args:
        only: Restrict to these rule ids (meta ids are accepted and
            simply have no class to instantiate; a folded id selects
            the rule it was folded into).  Unknown ids raise
            :class:`~repro.errors.ConfigurationError`.
        telemetry_schemas: Override the registered event set the
            telemetry rules compare against (tests inject small fake
            registries; the default reads the live ``EVENT_SCHEMAS``).
    """
    known = set(all_rule_ids())
    wanted: Optional[Set[str]] = None
    if only is not None:
        wanted = {RULE_ALIASES.get(rule_id, rule_id) for rule_id in only}
        unknown = sorted(wanted - known)
        if unknown:
            raise ConfigurationError(
                f"unknown lint rule id(s) {', '.join(unknown)}; known: "
                + ", ".join(all_rule_ids())
            )
    rules: List[Rule] = []
    for cls in RULE_CLASSES:
        if wanted is not None and cls.id not in wanted:
            continue
        if cls in (UnregisteredEventRule, OrphanSchemaRule):
            rules.append(cls(schemas=telemetry_schemas))
        else:
            rules.append(cls())
    return rules
