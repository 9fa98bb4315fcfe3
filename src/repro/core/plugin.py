"""The throttling-policy plugin harness.

Ramulator structures its controller plugins around three moments —
``init`` (construction from parameters), ``setup`` (binding to the
hardware being simulated), ``update`` (per-event observation) — with
every plugin registering its statistics so the frontend can dump them
uniformly.  This module brings the same shape to throttling policies:

* :class:`ThrottlePolicyPlugin` is the base class.  Construction takes
  the policy's parameters; :meth:`~ThrottlePolicyPlugin.setup` binds
  the policy to a machine before a run; the simulator drives
  :meth:`~ThrottlePolicyPlugin.on_task_dispatch` and
  :meth:`~ThrottlePolicyPlugin.on_task_complete`, and the policy's own
  machinery reports the derived events
  (:meth:`~ThrottlePolicyPlugin.on_window_close`,
  :meth:`~ThrottlePolicyPlugin.on_phase_change`,
  :meth:`~ThrottlePolicyPlugin.on_selection`) which the base class
  folds into per-plugin statistics.
* :class:`Selection` is the one record a selecting policy keeps per
  committed MTL (``policy.selections``): what triggered it, the
  candidates with the quantity each was judged by, the windows it
  measured, and the MTL chosen.
* :class:`PolicyStats` is the per-plugin stat registry; each sweep
  point's snapshot travels back as ``PointResult.policy_stats`` and
  lands in that point's ``point`` telemetry record (see
  :mod:`repro.runtime.telemetry`).
* :func:`register_policy` + :class:`PolicyEntry` form the name-keyed
  policy registry.  Policy modules register themselves at import time;
  :mod:`repro.core.registry` imports every policy module and exposes
  the lookup/build API consumed by the CLI, suite, and experiment
  layers.

This module sits below :mod:`repro.sim` (policies live in
:mod:`repro.core`, but ``FixedMtlPolicy`` lives in the scheduler), so
it imports nothing from the simulator at runtime — simulator types
appear in annotations only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # simulator types are annotation-only at this layer
    from repro.sim.events import TaskRecord
    from repro.sim.machine import Machine
    from repro.stream.task import Task

__all__ = [
    "POLICY_HOOKS",
    "PolicyEntry",
    "PolicyParam",
    "PolicyStats",
    "Selection",
    "ThrottlePolicyPlugin",
    "register_policy",
    "registered_policies",
]

#: The machine-readable hook contract: every method through which the
#: simulator (or the policy's own machinery) drives a policy during a
#: run.  Hooks *observe* — they may mutate the policy instance, but
#: never the simulator-owned arguments they receive, may not retain
#: references to those arguments, and may not write module globals.
#: The lint plugin-contract family (RPR901–RPR903) discovers this
#: tuple the same way pool-safety discovers ``POOL_BOUNDARY`` and
#: enforces that contract over every registered policy class.
POLICY_HOOKS: Tuple[str, ...] = (
    "setup",
    "on_task_dispatch",
    "on_task_complete",
    "blocks_context",
    "on_window_close",
    "on_phase_change",
    "on_selection",
)


def _valid_identifier(name: str) -> bool:
    return bool(name) and all(c.isalnum() or c in "_-" for c in name)


class PolicyStats:
    """Ramulator-style per-plugin statistic registry.

    Stats must be registered (usually in the plugin's ``__init__``)
    before they can be bumped; this keeps snapshots structurally
    stable across runs, so two runs of the same policy always expose
    the same stat names — a property the conformance suite pins.
    """

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}

    def register(self, name: str, initial: float = 0.0) -> None:
        if not _valid_identifier(name):
            raise ConfigurationError(f"invalid stat name {name!r}")
        if name in self._values:
            raise ConfigurationError(f"stat {name!r} registered twice")
        self._values[name] = float(initial)

    def add(self, name: str, delta: float = 1.0) -> None:
        if name not in self._values:
            raise ConfigurationError(f"stat {name!r} was never registered")
        self._values[name] += delta

    def snapshot(self) -> Dict[str, float]:
        """Name-sorted copy of every registered stat."""
        return {name: self._values[name] for name in sorted(self._values)}


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


class ThrottlePolicyPlugin:
    """Base class for pluggable throttling policies.

    Subclasses implement :meth:`current_mtl` (and usually
    :meth:`on_task_complete`); everything else has a safe default so a
    minimal policy stays minimal.  The base class registers the stats
    common to every policy (``windows_closed``, ``phase_changes``,
    ``selections``); subclasses register their own in ``__init__`` and
    everything surfaces through :meth:`stats_snapshot`.
    """

    #: Stats every plugin carries, bumped by the default hook bodies.
    _BASE_STATS = ("windows_closed", "phase_changes", "selections")

    def __init__(self, name: str) -> None:
        if not _valid_identifier(name):
            raise ConfigurationError(f"invalid policy name {name!r}")
        self._plugin_name = name
        self.stats = PolicyStats()
        for stat in self._BASE_STATS:
            self.stats.register(stat)

    # -- identity ------------------------------------------------------

    @property
    def name(self) -> str:
        return self._plugin_name

    # -- the SchedulingPolicy surface ---------------------------------

    def current_mtl(self) -> int:
        raise NotImplementedError(
            f"{type(self).__name__} must implement current_mtl()"
        )

    def is_probing(self) -> bool:
        return False

    # -- simulator-driven hooks ---------------------------------------

    def setup(self, machine: "Machine") -> None:
        """Bind to the machine before a run (Ramulator's ``setup``).

        The default is a no-op; policies that size internal structures
        from the context count override it.  The simulator calls it
        exactly once per ``run_graph``.
        """
        return None

    def on_task_dispatch(self, task: "Task", context_id: int, now: float) -> None:
        """A task was just dispatched to ``context_id``.

        The simulator only pays for this call when a subclass actually
        overrides it (the hot path checks the method identity once per
        run), so the default body must stay empty.
        """
        return None

    def on_task_complete(self, record: "TaskRecord", now: float) -> None:
        """A task completed (the policy's monitoring hook)."""
        return None

    def blocks_context(self, context_id: int, now: float) -> bool:
        """Whether ``context_id`` may not acquire an MTL token now.

        Veto hook for blacklist-style policies (BlockHammer idiom);
        consulted by the dispatcher before the MTL gate.  Like
        :meth:`on_task_dispatch` it costs nothing unless overridden.
        """
        return False

    # -- policy-driven derived events ---------------------------------

    def on_window_close(self, now: float) -> None:
        """A monitoring or probe window completed."""
        self.stats.add("windows_closed")

    def on_phase_change(self, now: float) -> None:
        """The detector signalled a phase change (re-selection trigger)."""
        self.stats.add("phase_changes")

    def on_selection(self, now: float, selected_mtl: int) -> None:
        """An MTL selection committed."""
        self.stats.add("selections")

    # -- reporting -----------------------------------------------------

    def stats_snapshot(self) -> Dict[str, float]:
        """Name-sorted stat values for telemetry emission."""
        return self.stats.snapshot()


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
