"""The name-keyed policy registry.

Importing this module imports every policy module (each registers
itself via :func:`repro.core.plugin.register_policy` at import time)
and exposes the lookup/build API the CLI, suite, and experiment
layers consume:

* :func:`policy_names` — every registered name, sorted;
* :func:`policy_entry` — the :class:`~repro.core.plugin.PolicyEntry`
  for one name;
* :func:`build_policy` — validate parameters (offending key named,
  exactly as the sweep-spec validators do) and construct a fresh
  policy instance;
* :func:`parse_policy_arg` — the CLI's ``name[:k=v,...]`` syntax;
* :func:`policy_catalogue` — plain dicts for reports and the
  ``docs/policies.md`` parity test.

``offline`` is deliberately **not** a registry entry: it is a
meta-procedure over every static MTL (:mod:`repro.core.offline`), not
a policy object, and the runtime layer special-cases it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

# Imported for their registration side effects: each policy module
# registers itself with the plugin registry at import time.
from repro.core import adaptive as _adaptive  # noqa: F401
from repro.core import budget as _budget  # noqa: F401
from repro.core import mise as _mise  # noqa: F401
from repro.core import policies as _policies  # noqa: F401
from repro.core import qos as _qos  # noqa: F401
from repro.core import throttle as _throttle  # noqa: F401
from repro.core.plugin import PolicyEntry, PolicyParam, registered_policies
from repro.errors import ConfigurationError, check_int, check_number

__all__ = [
    "build_policy",
    "parse_policy_arg",
    "policy_catalogue",
    "policy_entry",
    "policy_names",
]


def policy_names() -> List[str]:
    """Every registered policy name, sorted."""
    return sorted(registered_policies())


def policy_entry(name: str) -> PolicyEntry:
    """The registry entry for ``name``; unknown names raise."""
    entries = registered_policies()
    if name not in entries:
        raise ConfigurationError(
            f"unknown policy kind {name!r}; use "
            + " | ".join(policy_names())
            + " | offline"
        )
    return entries[name]


def _coerce(param: PolicyParam, value: Any) -> Any:
    """Validate one spec-typed parameter value, naming the offending key.

    Runs the same checks as the sweep-spec validators
    (:func:`~repro.errors.check_int`, :func:`~repro.errors.check_number`):
    ints must be ints (bools and strings rejected — ``bool`` subclasses
    ``int`` and JSON specs carry real numbers), floats accept ints and
    must be finite (a NaN threshold or bound would run, compare false
    everywhere, and hash into a cache key).  CLI strings are parsed
    *before* this, in :func:`parse_policy_arg`.
    """
    field = f"policy spec key {param.name!r}"
    if param.kind == "int":
        return check_int(value, field)
    return check_number(value, field)


def build_policy(
    name: str,
    context_count: int,
    params: Optional[Mapping[str, Any]] = None,
) -> Any:
    """Build a fresh instance of policy ``name`` for ``context_count``.

    Only parameters actually supplied are forwarded, so defaults are
    owned by the policy constructors — a registry-built policy is
    constructed exactly as a direct call would be.
    """
    entry = policy_entry(name)
    supplied = dict(params) if params is not None else {}
    kwargs: Dict[str, Any] = {}
    for key, value in supplied.items():
        param = entry.param(key)
        if param is None:
            expected = ", ".join(p.name for p in entry.params) or "(none)"
            raise ConfigurationError(
                f"policy spec key {key!r} is not a parameter of "
                f"{name!r}; expected: {expected}"
            )
        kwargs[key] = _coerce(param, value)
    for param in entry.params:
        if param.default is None and param.name not in kwargs:
            raise ConfigurationError(
                f"policy spec {dict(supplied)!r} needs a {param.name!r} key"
            )
    return entry.factory(context_count, **kwargs)


def _parse_value(param: PolicyParam, raw: str) -> Any:
    """Parse one CLI string value per the parameter's declared kind."""
    try:
        return int(raw) if param.kind == "int" else float(raw)
    except ValueError:
        kind = "an int" if param.kind == "int" else "a number"
        raise ConfigurationError(
            f"policy spec key {param.name!r} must be {kind}, got {raw!r}"
        ) from None


def parse_policy_arg(text: str) -> Tuple[str, Dict[str, Any]]:
    """Parse the CLI's ``name[:k=v,...]`` policy syntax.

    Returns the policy name and parameters already parsed to their
    declared kinds, ready for :func:`build_policy`.  The name and
    every key are validated here so a typo fails before any work runs.
    """
    name, _, rest = text.partition(":")
    name = name.strip()
    entry = policy_entry(name)  # validates; raises the unknown-kind error
    params: Dict[str, Any] = {}
    if rest.strip():
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key or not value.strip():
                raise ConfigurationError(
                    f"malformed policy parameter {item!r} in {text!r}; "
                    "expected name:key=value[,key=value...]"
                )
            if key in params:
                raise ConfigurationError(
                    f"policy parameter {key!r} given twice in {text!r}"
                )
            param = entry.param(key)
            if param is None:
                expected = ", ".join(p.name for p in entry.params) or "(none)"
                raise ConfigurationError(
                    f"policy spec key {key!r} is not a parameter of "
                    f"{name!r}; expected: {expected}"
                )
            params[key] = _parse_value(param, value.strip())
    return name, params


def policy_catalogue() -> List[Dict[str, Any]]:
    """Every registered policy as a plain dict (sorted by name).

    The shape feeds reports and the ``docs/policies.md`` parity test:
    ``{"name", "summary", "source", "params": [{"name", "kind",
    "default", "doc"}, ...]}``.
    """
    catalogue: List[Dict[str, Any]] = []
    for name in policy_names():
        entry = registered_policies()[name]
        catalogue.append(
            {
                "name": entry.name,
                "summary": entry.summary,
                "source": entry.source,
                "params": [
                    {
                        "name": p.name,
                        "kind": p.kind,
                        "default": p.default if p.default is not None else "required",
                        "doc": p.doc,
                    }
                    for p in entry.params
                ],
            }
        )
    return catalogue
