"""Telemetry schema conformance: emitted records, validator, and docs.

Three layers of the same contract:

1. every record the executor actually emits validates against
   :data:`~repro.runtime.telemetry.EVENT_SCHEMAS`;
2. :func:`~repro.runtime.telemetry.validate_record` rejects every
   malformation, naming the offending field;
3. the tables in ``docs/telemetry.md`` are parsed and compared field
   by field (names *and* types) against :data:`EVENT_SCHEMAS`, so the
   documentation cannot drift from the code without failing here.
"""

import io
import pathlib
import re

import pytest

from repro.errors import MeasurementError
from repro.runtime.cache import ResultCache
from repro.runtime.faults import FaultPlan
from repro.runtime.parallel import SweepExecutor, SweepPoint
from repro.runtime.telemetry import (
    EVENT_SCHEMAS,
    TELEMETRY_SCHEMA_VERSION,
    TelemetryWriter,
    read_telemetry,
    validate_record,
)

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs" / "telemetry.md"

POINTS = [
    SweepPoint(
        workload={"kind": "synthetic", "ratio": ratio, "pairs": 16},
        policy={"kind": "static", "mtl": 2},
        label=f"schema/r={ratio:g}",
    )
    for ratio in (0.2, 0.5, 1.0)
]


def emit_everything(tmp_path):
    """Executor and cache runs that produce every event kind, with no
    hand-built record: a schema no run can produce fails here."""
    sink = io.StringIO()
    # error_rate=1 with retries=1 fails the first point set; a second
    # healthy cached run adds point + cache_quarantine records.
    cache = ResultCache(tmp_path)
    SweepExecutor(
        jobs=1,
        retries=1,
        fault_plan=FaultPlan(seed=0, error_rate=1.0),
        telemetry=TelemetryWriter(sink),
    ).run(POINTS)
    chaos = SweepExecutor(
        jobs=1,
        cache=cache,
        retries=3,
        fault_plan=FaultPlan(seed=0, corrupt_rate=1.0),
        telemetry=TelemetryWriter(sink),
    )
    chaos.run(POINTS)  # stores, then corrupts, every entry
    chaos.run(POINTS)  # quarantines and re-runs
    return read_telemetry(io.StringIO(sink.getvalue()))


class TestEmittedRecordsConform:
    def test_every_record_validates(self, tmp_path):
        records = emit_everything(tmp_path)
        kinds = {r["event"] for r in records}
        assert kinds == set(EVENT_SCHEMAS)  # every kind exercised
        for record in records:
            validate_record(record)


#: A ``point`` record as the executor writes it (the fields, not the
#: numbers, are what the validator looks at).
POINT = {
    "schema": TELEMETRY_SCHEMA_VERSION,
    "event": "point",
    "key": "k",
    "label": "l",
    "workload": "w",
    "machine": "m",
    "policy": "p",
    "seed": None,
    "cache_hit": True,
    "wall_seconds": 0.0,
    "worker": 1,
    "jobs": 1,
    "makespan": 1.0,
    "sim_events": 1,
    "policy_stats": None,
}


class TestValidateRecordRejections:
    GOOD = {
        "schema": TELEMETRY_SCHEMA_VERSION,
        "event": "fault",
        "key": "k",
        "label": "l",
        "kind": "crash",
        "attempt": 0,
        "jobs": 1,
    }

    def test_non_dict_rejected(self):
        with pytest.raises(MeasurementError, match="object"):
            validate_record(["not", "a", "record"])

    @pytest.mark.parametrize(
        "record",
        [
            {**GOOD, "schema": 99},
            # A schema-1 log fails at its version, not at a kind schema
            # 2 removed.
            {
                "schema": 1,
                # repro: lint-ok RPR301 -- a schema-1 kind, to check the version is named first
                "event": "policy_stat",
                "key": "k",
                "label": "l",
                "policy": "p",
                "stat": "selections",
                "value": 1.0,
            },
        ],
        ids=["schema-99", "schema-1-policy_stat"],
    )
    def test_other_schema_version_rejected_naming_both(self, record):
        with pytest.raises(MeasurementError) as excinfo:
            validate_record(record)
        message = str(excinfo.value)
        assert f"schema {record['schema']}" in message
        assert f"schema {TELEMETRY_SCHEMA_VERSION}" in message

    def test_unknown_event_rejected(self):
        with pytest.raises(MeasurementError, match="'explosion'"):
            # repro: lint-ok RPR301 -- deliberately unregistered event for the rejection test
            validate_record({**self.GOOD, "event": "explosion"})

    def test_missing_field_named(self):
        record = {k: v for k, v in self.GOOD.items() if k != "attempt"}
        with pytest.raises(MeasurementError, match="attempt"):
            validate_record(record)

    def test_unexpected_field_named(self):
        with pytest.raises(MeasurementError, match="surprise"):
            validate_record({**self.GOOD, "surprise": 1})

    def test_wrong_type_named(self):
        with pytest.raises(MeasurementError, match="'attempt'"):
            validate_record({**self.GOOD, "attempt": "zero"})

    def test_bool_never_satisfies_numeric(self):
        # bool subclasses int in Python; the schema must not let
        # ``True`` pass as an attempt count.
        with pytest.raises(MeasurementError, match="'attempt'"):
            validate_record({**self.GOOD, "attempt": True})

    def test_float_field_accepts_int(self):
        # JSON does not distinguish 3 from 3.0.
        validate_record({**POINT, "wall_seconds": 2, "makespan": 3})

    def test_optional_int_accepts_null_not_str(self):
        validate_record(POINT)
        validate_record({**POINT, "seed": 42})
        with pytest.raises(MeasurementError, match="'seed'"):
            validate_record({**POINT, "seed": "42"})

    def test_policy_stats_is_an_object_or_null(self):
        validate_record({**POINT, "policy_stats": {"selections": 2.0}})
        with pytest.raises(MeasurementError, match="'policy_stats'"):
            validate_record({**POINT, "policy_stats": [["selections", 2.0]]})


def parse_doc_tables():
    """Field name -> documented type, per event kind, from the docs.

    Parses every ``## `NAME` events`` section's markdown table plus the
    leading "every record carries" table (whose fields apply to all
    kinds).
    """
    text = DOCS.read_text()
    sections = re.split(r"^## ", text, flags=re.MULTILINE)
    common = {}
    for row in re.findall(r"^\| `(\w+)` \| ([\w ]+) \|", sections[0], re.MULTILINE):
        common[row[0]] = row[1].strip()
    tables = {}
    for section in sections[1:]:
        match = re.match(r"`(\w+)` events", section)
        if not match:
            continue
        fields = dict(common)
        for name, type_text in re.findall(
            r"^\| `(\w+)` \| ([\w ]+) \|", section, re.MULTILINE
        ):
            fields[name] = type_text.strip()
        tables[match.group(1)] = fields
    return tables


#: Documented type text -> the exact type tuple EVENT_SCHEMAS must use.
DOC_TYPES = {
    "string": (str,),
    "int": (int,),
    "float": (float, int),
    "bool": (bool,),
    "int or null": (int, type(None)),
    "object or null": (dict, type(None)),
}


class TestDocsCannotDrift:
    def test_docs_document_every_event_kind(self):
        assert set(parse_doc_tables()) == set(EVENT_SCHEMAS)

    @pytest.mark.parametrize("kind", sorted(EVENT_SCHEMAS))
    def test_fields_and_types_match(self, kind):
        documented = parse_doc_tables()[kind]
        schema = EVENT_SCHEMAS[kind]
        assert set(documented) == set(schema), (
            f"docs/telemetry.md and EVENT_SCHEMAS disagree on the "
            f"fields of {kind!r}"
        )
        for field, type_text in documented.items():
            assert type_text in DOC_TYPES, (
                f"docs/telemetry.md uses undeclared type {type_text!r} "
                f"for {kind}.{field}"
            )
            assert DOC_TYPES[type_text] == schema[field], (
                f"docs say {kind}.{field} is {type_text!r}; "
                f"EVENT_SCHEMAS says {schema[field]}"
            )
