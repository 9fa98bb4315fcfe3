"""The policy registry and the selection record.

Every throttling policy subclasses
:class:`~repro.sim.scheduler.ThrottlePolicyPlugin`, the contract the
simulator drives, which lives one layer down with the runtime it plugs
into.  This module holds what belongs to the policies themselves:

* :class:`Selection` is the one record a selecting policy keeps per
  committed MTL (``policy.selections``): what triggered it, the
  candidates with the quantity each was judged by, the windows it
  measured, and the MTL chosen.
* :func:`register_policy` + :class:`PolicyEntry` form the name-keyed
  policy registry.  Policy modules register themselves at import time;
  :mod:`repro.core.registry` imports every policy module and exposes
  the lookup/build API consumed by the CLI, suite, and experiment
  layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError

# e2ebench's tracer reads these two names from this module; the line
# goes once it imports them from repro.sim.scheduler.
from repro.sim.scheduler import POLICY_HOOKS, ThrottlePolicyPlugin  # noqa: F401
from repro.sim.scheduler import _valid_identifier

__all__ = [
    "PolicyEntry",
    "PolicyParam",
    "Selection",
    "register_policy",
    "registered_policies",
]


@dataclass(frozen=True)
class Selection:
    """One committed MTL selection: why this k.

    Attributes:
        time: Simulated time the selection committed.
        trigger: IdleBound of the monitoring window that started it;
            ``None`` when the trigger is not an IdleBound (``online``
            re-selects on a wall-clock change).
        candidates: Each MTL the rule chose among, with the quantity
            it was judged by (see ``docs/policies.md``, "Selection
            records").
        measured: ``mtl -> (t_m, t_c)``, the window means measured at
            each MTL the selection ran, the trigger window included.
        selected_mtl: The MTL committed, one of ``candidates``.
    """

    time: float
    trigger: Optional[int]
    candidates: Dict[int, float]
    measured: Dict[int, Tuple[float, float]]
    selected_mtl: int


@dataclass(frozen=True)
class PolicyParam:
    """One declared parameter of a registered policy.

    ``default`` is the human-readable default shown in
    ``docs/policies.md`` (``None`` marks the parameter required);
    ``kind`` drives CLI/spec coercion (``"int"`` or ``"float"``).
    """

    name: str
    kind: str
    default: Optional[str]
    doc: str

    def __post_init__(self) -> None:
        if self.kind not in ("int", "float"):
            raise ConfigurationError(
                f"param kind must be 'int' or 'float', got {self.kind!r}"
            )
        if not _valid_identifier(self.name):
            raise ConfigurationError(f"invalid param name {self.name!r}")


@dataclass(frozen=True)
class PolicyEntry:
    """One registry entry: identity, documentation, and a factory.

    ``factory(context_count, **params)`` builds a fresh policy
    instance; params not supplied by the caller are left to the
    factory's own defaults so registry-built policies are constructed
    exactly as direct calls would be.
    """

    name: str
    summary: str
    source: str
    params: Tuple[PolicyParam, ...]
    factory: Callable[..., Any]

    def param(self, name: str) -> Optional[PolicyParam]:
        for param in self.params:
            if param.name == name:
                return param
        return None


_REGISTRY: Dict[str, PolicyEntry] = {}


def register_policy(
    name: str,
    factory: Callable[..., Any],
    *,
    summary: str,
    source: str,
    params: Tuple[PolicyParam, ...] = (),
) -> PolicyEntry:
    """Register a policy under ``name`` (import-time, once)."""
    if not _valid_identifier(name):
        raise ConfigurationError(f"invalid policy name {name!r}")
    if name in _REGISTRY:
        raise ConfigurationError(f"policy {name!r} registered twice")
    seen = set()
    for param in params:
        if param.name in seen:
            raise ConfigurationError(
                f"policy {name!r} declares param {param.name!r} twice"
            )
        seen.add(param.name)
    entry = PolicyEntry(
        name=name, summary=summary, source=source, params=tuple(params),
        factory=factory,
    )
    _REGISTRY[name] = entry
    return entry


def registered_policies() -> Dict[str, PolicyEntry]:
    """Snapshot of the registry (name -> entry), insertion-ordered."""
    return dict(_REGISTRY)
