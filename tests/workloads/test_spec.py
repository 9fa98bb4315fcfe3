"""Tests for JSON workload specs."""

import json
import math

import pytest

from repro.errors import WorkloadError
from repro.runtime.monitor import measure_phase_ratios
from repro.workloads.spec import load_workload_spec, parse_workload_spec


def valid_spec():
    return {
        "name": "custom",
        "phases": [
            {"name": "ingest", "pairs": 8, "ratio": 0.55},
            {"name": "emit", "pairs": 4, "requests": 8192,
             "compute_seconds": 0.0012},
        ],
    }


class TestParse:
    def test_builds_phased_program(self):
        program = parse_workload_spec(valid_spec())
        assert program.name == "custom"
        assert [p.name for p in program.phases] == ["ingest", "emit"]
        assert program.total_pairs == 12

    def test_ratio_phases_calibrate_to_reference(self):
        program = parse_workload_spec(
            {"name": "w", "phases": [{"pairs": 8, "ratio": 0.55}]}
        )
        ratios = measure_phase_ratios(program)
        assert list(ratios.values())[0] == pytest.approx(0.55, rel=1e-4)

    def test_explicit_phases_carry_given_values(self):
        program = parse_workload_spec(
            {"name": "w", "phases": [
                {"pairs": 2, "requests": 100, "compute_seconds": 0.5}
            ]}
        )
        pair = program.phases[0].pairs[0]
        assert pair.memory.memory_requests == 100
        assert pair.compute.cpu_seconds == 0.5

    def test_default_phase_names(self):
        program = parse_workload_spec(
            {"name": "w", "phases": [{"pairs": 1, "ratio": 1.0}]}
        )
        assert program.phases[0].name == "phase0"


class TestValidation:
    @pytest.mark.parametrize(
        "document",
        [
            [],
            {"phases": [{"pairs": 1, "ratio": 1.0}]},
            {"name": "", "phases": [{"pairs": 1, "ratio": 1.0}]},
            {"name": "w"},
            {"name": "w", "phases": []},
            {"name": "w", "phases": ["nope"]},
            {"name": "w", "phases": [{"ratio": 1.0}]},
            {"name": "w", "phases": [{"pairs": 0, "ratio": 1.0}]},
            {"name": "w", "phases": [{"pairs": 1, "ratio": -1.0}]},
            {"name": "w", "phases": [{"pairs": 1}]},
            {"name": "w", "phases": [{"pairs": 1, "requests": 10}]},
            {"name": "w", "phases": [{"pairs": 1, "ratio": 1.0,
                                      "requests": 10,
                                      "compute_seconds": 1.0}]},
            {"name": "w", "phases": [{"pairs": 1, "ratio": 1.0,
                                      "mystery": 1}]},
            {"name": "w", "phases": [{"pairs": 1, "ratio": 1.0,
                                      "footprint_bytes": 0}]},
            # An unknown top-level key, like an unknown phase key.
            {"name": "t", "phases": [{"pairs": 4, "ratio": 1}], "pairz": 9},
            # JSON true/false is not a number, though bool subclasses int.
            {"name": "w", "phases": [{"pairs": True, "ratio": True}]},
            {"name": "w", "phases": [{"pairs": True, "ratio": 1.0}]},
            {"name": "w", "phases": [{"pairs": 1, "ratio": True}]},
            {"name": "w", "phases": [{"pairs": 1, "ratio": 1.0,
                                      "footprint_bytes": True}]},
            {"name": "w", "phases": [{"pairs": 1, "requests": True,
                                      "compute_seconds": 0.5}]},
            {"name": "w", "phases": [{"pairs": 1, "requests": 100,
                                      "compute_seconds": True}]},
        ],
    )
    def test_rejects_malformed_documents(self, document):
        with pytest.raises(WorkloadError):
            parse_workload_spec(document)

    # 10**400 is an int past the float range: it used to escape as a
    # bare OverflowError instead of the WorkloadError naming the key.
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400])
    @pytest.mark.parametrize(
        "phase, key",
        [
            ({"pairs": 1}, "ratio"),
            ({"pairs": 1, "compute_seconds": 0.001}, "requests"),
            ({"pairs": 1, "requests": 100}, "compute_seconds"),
        ],
    )
    def test_rejects_non_finite_numbers(self, phase, key, value):
        document = {"name": "w", "phases": [dict(phase, **{key: value})]}
        with pytest.raises(WorkloadError, match=f"'{key}'"):
            parse_workload_spec(document)

    def test_json_infinity_is_rejected_at_parse(self):
        # Python's json reads the non-standard token Infinity as a float.
        document = json.loads(
            '{"name": "w", "phases": [{"pairs": 1, "requests": Infinity,'
            ' "compute_seconds": 0.001}]}'
        )
        with pytest.raises(WorkloadError, match="'requests'"):
            parse_workload_spec(document)


class TestLoadFromFile:
    def test_round_trip_through_disk(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(valid_spec()))
        program = load_workload_spec(path)
        assert program.name == "custom"

    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError):
            load_workload_spec(tmp_path / "ghost.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(WorkloadError):
            load_workload_spec(path)
