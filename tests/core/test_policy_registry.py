"""Unit tests for the name-keyed policy registry.

The registry is the one place the CLI, suite, and experiment layers
look policies up, so its error surface is part of the UX: every
rejection must name the offending key and list what would have been
accepted.
"""

import pytest

from repro.core.plugin import PolicyParam, register_policy
from repro.core.registry import (
    build_policy,
    parse_policy_arg,
    policy_catalogue,
    policy_entry,
    policy_names,
)
from repro.core.throttle import DynamicThrottlingPolicy
from repro.errors import ConfigurationError
from repro.sim.scheduler import FixedMtlPolicy


class TestLookup:
    def test_names_are_sorted_and_complete(self):
        names = policy_names()
        assert names == sorted(names)
        assert len(names) == 8

    def test_unknown_name_lists_the_choices(self):
        with pytest.raises(ConfigurationError, match="unknown policy kind"):
            policy_entry("bogus")
        with pytest.raises(ConfigurationError, match=r"\| offline"):
            # `offline` is deliberately outside the registry but the
            # error still advertises it (the runtime special-cases it).
            policy_entry("bogus")

    def test_entry_param_lookup(self):
        entry = policy_entry("dynamic")
        assert entry.param("window_pairs") is not None
        assert entry.param("nope") is None


class TestBuildPolicy:
    def test_builds_the_right_type_with_defaults(self):
        policy = build_policy("dynamic", 4)
        assert isinstance(policy, DynamicThrottlingPolicy)

    def test_params_forwarded(self):
        policy = build_policy("static", 4, {"mtl": 3})
        assert isinstance(policy, FixedMtlPolicy)
        assert policy.current_mtl() == 3

    def test_unknown_param_names_key_and_expectations(self):
        with pytest.raises(
            ConfigurationError, match="'warp' is not a parameter of 'dynamic'"
        ):
            build_policy("dynamic", 4, {"warp": 9})

    def test_missing_required_param_named(self):
        with pytest.raises(ConfigurationError, match="needs a 'mtl' key"):
            build_policy("static", 4)

    def test_int_param_rejects_bool_and_string(self):
        with pytest.raises(ConfigurationError, match="'mtl' must be an int"):
            build_policy("static", 4, {"mtl": True})
        with pytest.raises(ConfigurationError, match="'mtl' must be an int"):
            build_policy("static", 4, {"mtl": "2"})

    def test_float_param_accepts_int_rejects_bool(self):
        entry = policy_entry("adaptive-window")
        float_params = [p for p in entry.params if p.kind == "float"]
        assert float_params, "adaptive-window should declare a float param"
        name = float_params[0].name
        policy = build_policy("adaptive-window", 4, {name: 1})
        assert policy is not None
        with pytest.raises(ConfigurationError, match=f"{name!r} must be a number"):
            build_policy("adaptive-window", 4, {name: True})

    @pytest.mark.parametrize(
        "name, key",
        [
            ("online", "threshold"),
            ("qos", "target_slowdown"),
            ("adaptive-window", "budget_fraction"),
        ],
    )
    @pytest.mark.parametrize(
        "value",
        [
            float("nan"),
            float("inf"),
            float("-inf"),
            pytest.param(10**400, id="int-past-float-range"),
        ],
    )
    def test_float_param_rejects_non_finite(self, name, key, value):
        with pytest.raises(ConfigurationError, match=f"{key!r} must be finite"):
            build_policy(name, 4, {key: value})

    def test_only_supplied_params_forwarded(self):
        # Constructor defaults stay with the constructor: a registry
        # build with no params equals a bare direct call.
        direct = DynamicThrottlingPolicy(context_count=4)
        via_registry = build_policy("dynamic", 4)
        assert via_registry.window_pairs == direct.window_pairs


class TestParsePolicyArg:
    def test_bare_name(self):
        assert parse_policy_arg("conventional") == ("conventional", {})

    def test_params_parsed_to_declared_kinds(self):
        name, params = parse_policy_arg("dynamic:window_pairs=8")
        assert name == "dynamic"
        assert params == {"window_pairs": 8}
        assert isinstance(params["window_pairs"], int)

    def test_unknown_name_fails_before_params(self):
        with pytest.raises(ConfigurationError, match="unknown policy kind"):
            parse_policy_arg("bogus:window_pairs=8")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="'warp'"):
            parse_policy_arg("dynamic:warp=9")

    def test_malformed_item_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed policy parameter"):
            parse_policy_arg("dynamic:window_pairs")
        with pytest.raises(ConfigurationError, match="malformed policy parameter"):
            parse_policy_arg("dynamic:=8")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="given twice"):
            parse_policy_arg("dynamic:window_pairs=8,window_pairs=9")

    def test_unparsable_value_names_kind(self):
        with pytest.raises(ConfigurationError, match="must be an int, got 'two'"):
            parse_policy_arg("static:mtl=two")

    def test_roundtrip_through_build(self):
        name, params = parse_policy_arg("static:mtl=2")
        policy = build_policy(name, 4, params)
        assert policy.current_mtl() == 2


class TestCatalogue:
    def test_covers_every_name_in_order(self):
        catalogue = policy_catalogue()
        assert [e["name"] for e in catalogue] == policy_names()

    def test_entries_are_fully_documented(self):
        for entry in policy_catalogue():
            assert entry["summary"], entry["name"]
            assert entry["source"], entry["name"]
            for param in entry["params"]:
                assert param["kind"] in ("int", "float")
                assert param["doc"], (entry["name"], param["name"])
                assert param["default"], (entry["name"], param["name"])

    def test_required_params_marked(self):
        static = next(e for e in policy_catalogue() if e["name"] == "static")
        mtl = next(p for p in static["params"] if p["name"] == "mtl")
        assert mtl["default"] == "required"


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="registered twice"):
            register_policy(
                "dynamic",
                lambda n: None,
                summary="dup",
                source="dup",
                params=(),
            )

    def test_invalid_param_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="param kind"):
            PolicyParam(name="x", kind="str", default=None, doc="d")
