"""Error-path tests for the declarative spec vocabulary.

Every invalid workload/machine/policy spec shape must raise
:class:`~repro.errors.ConfigurationError` whose message **names the
offending key** — a sweep misconfiguration found three hours into a
grid run is a bug in the harness, not the user.  The happy paths live
in ``tests/runtime/test_parallel.py``; this file owns the rejections.
"""

import pytest

from repro.core.registry import policy_names
from repro.errors import ConfigurationError, WorkloadError
from repro.runtime import parallel
from repro.runtime.parallel import (
    SweepPoint,
    build_machine_from_spec,
    build_policy_from_spec,
    build_workload_from_spec,
    run_point,
)
from repro.sim.machine import i7_860
from repro.stream.task import Task
from repro.workloads import SyntheticWorkload
from repro.workloads.base import MAX_WORKLOAD_TASKS

WORKLOAD_CASES = [
    pytest.param({"kind": "registry", "name": 3}, "'name'", id="registry-name-int"),
    pytest.param(
        {"kind": "synthetic", "ratio": "0.5"}, "'ratio'", id="synthetic-ratio-str"
    ),
    pytest.param(
        {"kind": "synthetic", "ratio": True}, "'ratio'", id="synthetic-ratio-bool"
    ),
    pytest.param(
        {"kind": "synthetic", "ratio": 0.5, "pairs": 1.5},
        "'pairs'",
        id="synthetic-pairs-float",
    ),
    pytest.param(
        {"kind": "synthetic", "ratio": 0.5, "pairs": True},
        "'pairs'",
        id="synthetic-pairs-bool",
    ),
    pytest.param(
        {"kind": "synthetic", "ratio": 0.5, "footprint_bytes": "1MB"},
        "'footprint_bytes'",
        id="synthetic-footprint-str",
    ),
    pytest.param(
        {"kind": "synthetic", "ratio": 0.5, "llc": 8},
        "'llc'",
        id="synthetic-llc-not-object",
    ),
    pytest.param(
        {"kind": "synthetic", "ratio": 0.5, "llc": {"sharers": 4}},
        "'capacity_bytes'",
        id="synthetic-llc-missing-capacity",
    ),
    pytest.param(
        {
            "kind": "synthetic",
            "ratio": 0.5,
            "llc": {"capacity_bytes": 1.5e6, "sharers": 4},
        },
        "'capacity_bytes'",
        id="synthetic-llc-capacity-float",
    ),
    pytest.param(
        {"kind": "streamcluster", "rounds": "3"},
        "'rounds'",
        id="streamcluster-rounds-str",
    ),
    pytest.param(
        {"kind": "streamcluster", "pairs_per_round": 2.5},
        "'pairs_per_round'",
        id="streamcluster-pairs-float",
    ),
    pytest.param(
        {"kind": "spec", "document": "not a document"},
        "'document'",
        id="spec-document-str",
    ),
    pytest.param({"kind": ["synthetic"], "ratio": 0.5}, "'kind'", id="kind-list"),
    pytest.param({"kind": {"x": 1}}, "'kind'", id="kind-object"),
    pytest.param({"kind": "synthetc", "ratio": 0.5}, "'synthetc'", id="kind-unknown"),
]

#: Keys a workload kind does not take: each one used to be ignored, so
#: the spec built a default workload and was cached under the typo.
UNKNOWN_WORKLOAD_KEYS = [
    pytest.param(
        {"kind": "synthetic", "ratio": 1.0, "pairz": 4}, "'pairz'",
        id="synthetic-typo",
    ),
    pytest.param(
        {"kind": "streamcluster", "dimenson": 4}, "'dimenson'",
        id="streamcluster-typo",
    ),
    pytest.param(
        {"kind": "registry", "name": "dft", "pairs": 8}, "'pairs'",
        id="registry-extra",
    ),
    pytest.param(
        {
            "kind": "spec",
            "document": {"name": "tiny", "phases": [{"pairs": 8, "ratio": 1}]},
            "ratio": 2,
        },
        "'ratio'",
        id="spec-extra",
    ),
    pytest.param(
        {
            "kind": "synthetic",
            "ratio": 0.5,
            "llc": {"capacity_bytes": 8388608, "sharers": 4, "ways": 16},
        },
        "'ways'",
        id="synthetic-llc-extra",
    ),
]

UNKNOWN_MACHINE_KEYS = [
    pytest.param({"preset": "i7_860", "SMT": 2}, "'SMT'", id="i7-typo"),
    pytest.param(
        {"preset": "power7", "llc_capacity_bytes": 4194304},
        "'llc_capacity_bytes'",
        id="power7-i7-only-key",
    ),
    pytest.param({"channels": 2, "cores": 8}, "'cores'", id="default-preset-extra"),
]

MACHINE_CASES = [
    pytest.param({"preset": "i7_860", "channels": "1"}, "'channels'", id="channels-str"),
    pytest.param({"preset": "i7_860", "smt": 2.5}, "'smt'", id="smt-float"),
    pytest.param(
        {"preset": "i7_860", "llc_capacity_bytes": True},
        "'llc_capacity_bytes'",
        id="llc-capacity-bool",
    ),
    pytest.param({"preset": "power7", "smt": "4"}, "'smt'", id="power7-smt-str"),
    pytest.param(
        {"preset": "power7", "channels": 2.0}, "'channels'", id="power7-channels-float"
    ),
    pytest.param({"preset": ["i7_860"]}, "'preset'", id="preset-list"),
    pytest.param({"preset": "i7-860"}, "'i7-860'", id="preset-unknown"),
]

POLICY_CASES = [
    pytest.param({"kind": "static", "mtl": "2"}, "'mtl'", id="static-mtl-str"),
    pytest.param({"kind": "static", "mtl": 2.0}, "'mtl'", id="static-mtl-float"),
    pytest.param({"kind": "static", "mtl": True}, "'mtl'", id="static-mtl-bool"),
    pytest.param(
        {"kind": "dynamic", "window_pairs": "16"},
        "'window_pairs'",
        id="dynamic-window-str",
    ),
    pytest.param(
        {"kind": "online", "window_pairs": 1.5},
        "'window_pairs'",
        id="online-window-float",
    ),
    pytest.param(
        {"kind": "online", "threshold": float("nan")},
        "'threshold'",
        id="online-threshold-nan",
    ),
    pytest.param(
        {"kind": "qos", "target_slowdown": float("nan")},
        "'target_slowdown'",
        id="qos-target-nan",
    ),
    pytest.param(
        {"kind": "qos", "target_slowdown": float("inf")},
        "'target_slowdown'",
        id="qos-target-inf",
    ),
    pytest.param(
        {"kind": "adaptive-window", "budget_fraction": float("-inf")},
        "'budget_fraction'",
        id="adaptive-budget-neg-inf",
    ),
]


class TestWorkloadSpecRejections:
    @pytest.mark.parametrize("spec, named_key", WORKLOAD_CASES)
    def test_offending_key_is_named(self, spec, named_key):
        with pytest.raises(ConfigurationError, match=named_key):
            build_workload_from_spec(spec)

    def test_missing_kind_is_named(self):
        with pytest.raises(ConfigurationError, match="'kind'"):
            build_workload_from_spec({"ratio": 0.5})

    @pytest.mark.parametrize("spec, named_key", UNKNOWN_WORKLOAD_KEYS)
    def test_unknown_key_is_named_with_the_accepted_ones(self, spec, named_key):
        with pytest.raises(ConfigurationError, match=named_key) as error:
            build_workload_from_spec(spec)
        assert "accepted" in str(error.value)

    @pytest.mark.parametrize(
        "phase, key",
        [
            ({"ratio": 10**400}, "ratio"),
            ({"requests": 10**400, "compute_seconds": 0.001}, "requests"),
            ({"requests": 100, "compute_seconds": 10**400}, "compute_seconds"),
        ],
    )
    def test_int_past_the_float_range_fails_the_point(self, phase, key):
        document = {"name": "x", "phases": [dict(phase, pairs=4)]}
        point = SweepPoint(workload={"kind": "spec", "document": document})
        with pytest.raises(WorkloadError, match=f"'{key}'"):
            run_point(point)

    def test_unknown_document_key_is_named_with_the_accepted_ones(self):
        # The document's own keys are the spec parser's to check: a
        # typo used to build the program and cache it under the typo.
        spec = {
            "kind": "spec",
            "document": {
                "name": "t", "phases": [{"pairs": 4, "ratio": 1}], "pairz": 9,
            },
        }
        with pytest.raises(WorkloadError, match="'pairz'") as error:
            build_workload_from_spec(spec)
        assert "accepted: ['name', 'phases']" in str(error.value)


#: Specs one pair over the bound (``MAX_WORKLOAD_TASKS``, two tasks a
#: pair), each counted its own way.
OVERSIZED_SPECS = [
    pytest.param(
        {"kind": "synthetic", "ratio": 1.0, "pairs": 50_001}, id="synthetic"
    ),
    pytest.param(
        {"kind": "streamcluster", "rounds": 3, "pairs_per_round": 16_667},
        id="streamcluster",
    ),
    pytest.param(
        {
            "kind": "spec",
            "document": {
                "name": "big",
                "phases": [
                    {"pairs": 25_000, "ratio": 1},
                    {"pairs": 25_001, "ratio": 1},
                ],
            },
        },
        id="spec-document",
    ),
]


class TestWorkloadSizeBound:
    @pytest.mark.parametrize("spec", OVERSIZED_SPECS)
    def test_oversized_spec_fails_before_building(self, spec, monkeypatch):
        assert MAX_WORKLOAD_TASKS == 100_000
        built = []
        monkeypatch.setattr(Task, "__post_init__", built.append)
        with pytest.raises(WorkloadError, match="at most 100000 tasks"):
            build_workload_from_spec(spec)
        assert built == []

    def test_the_bound_itself_is_accepted(self):
        assert SyntheticWorkload(ratio=1.0, pairs=50_000).pairs == 50_000


class TestMachineSpecRejections:
    @pytest.mark.parametrize("spec, named_key", MACHINE_CASES)
    def test_offending_key_is_named(self, spec, named_key):
        with pytest.raises(ConfigurationError, match=named_key):
            build_machine_from_spec(spec)

    @pytest.mark.parametrize("spec, named_key", UNKNOWN_MACHINE_KEYS)
    def test_unknown_key_is_named_with_the_accepted_ones(self, spec, named_key):
        with pytest.raises(ConfigurationError, match=named_key) as error:
            build_machine_from_spec(spec)
        assert "'smt'" in str(error.value)  # an accepted key is listed

    def test_unknown_key_fails_the_point(self):
        point = SweepPoint(
            workload={"kind": "synthetic", "ratio": 1.0, "pairs": 4},
            machine={"preset": "i7_860", "SMT": 2},
        )
        with pytest.raises(ConfigurationError, match="'SMT'"):
            run_point(point)


class TestPolicySpecRejections:
    @pytest.mark.parametrize("spec, named_key", POLICY_CASES)
    def test_offending_key_is_named(self, spec, named_key):
        with pytest.raises(ConfigurationError, match=named_key):
            build_policy_from_spec(spec, i7_860())

    def test_offline_takes_no_parameters(self):
        point = SweepPoint(
            workload={"kind": "synthetic", "ratio": 1.0, "pairs": 4},
            policy={"kind": "offline", "junk": 1},
        )
        with pytest.raises(ConfigurationError, match="'junk'") as error:
            run_point(point)
        assert "'kind'" in str(error.value)  # the one accepted key


#: Seeds a point rejects.  -1 used to die in numpy with a bare
#: ``ValueError`` (aborting a pool sweep), and ``True`` ran as seed 1
#: under another cache key.
INVALID_SEEDS = [
    pytest.param(-1, id="negative"),
    pytest.param(True, id="bool-true"),
    pytest.param(False, id="bool-false"),
    pytest.param(1.0, id="float"),
    pytest.param("1", id="str"),
]


class TestSeedRejections:
    @pytest.mark.parametrize("seed", INVALID_SEEDS)
    def test_seed_is_named(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            SweepPoint({"kind": "synthetic", "ratio": 1.0, "pairs": 4}, seed=seed)


class TestValidSpecsStillBuild:
    """Strict validation must not reject the documented vocabulary."""

    def test_synthetic_with_llc(self):
        program = build_workload_from_spec(
            {
                "kind": "synthetic",
                "ratio": 0.5,
                "pairs": 16,
                "footprint_bytes": 524288,
                "llc": {"capacity_bytes": 8388608, "sharers": 4},
            }
        )
        assert program.name.startswith("synthetic")

    def test_int_valued_ratio_is_a_number(self):
        # floats accept ints (JSON does not distinguish 1 from 1.0).
        program = build_workload_from_spec(
            {"kind": "synthetic", "ratio": 1, "pairs": 16}
        )
        assert program.name.startswith("synthetic")

    def test_policy_window_pairs(self):
        policy = build_policy_from_spec(
            {"kind": "dynamic", "window_pairs": 8}, i7_860()
        )
        assert policy.name


class TestSpecVocabularyTable:
    def test_docstring_table_names_everything_the_parser_accepts(self):
        # Pinned like docs/telemetry.md to EVENT_SCHEMAS: every workload
        # kind, machine preset, spec key and registered policy.
        table = parallel.__doc__.split("Spec vocabulary", 1)[1]
        keys = set(parallel._LLC_KEYS)
        for kind, accepted in parallel._WORKLOAD_KEYS.items():
            keys |= {kind} | accepted
        for preset, (_, accepted) in parallel._MACHINE_PRESETS.items():
            keys |= {preset} | accepted
        missing = sorted(key for key in keys if f'"{key}"' not in table)
        missing += [name for name in policy_names() if f"``{name}``" not in table]
        assert missing == []
