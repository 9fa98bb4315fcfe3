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
    cache_quarantine_event,
    fault_event,
    point_event,
    point_failure_event,
    policy_selection_event,
    policy_stat_event,
    profile_event,
    read_telemetry,
    retry_event,
    snapshot_cache_event,
    sweep_event,
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
    """One run that produces every event kind."""
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
    # The perf events are emitted by perfbench, not the executor; feed
    # the same sink through the builders it uses.
    writer = TelemetryWriter(sink)
    writer.emit(
        snapshot_cache_event(
            cache="rate_snapshot", label="schema", hits=8, misses=2, entries=2
        )
    )
    writer.emit(
        profile_event(
            label="schema", function="engine.py:1(snapshot)", rank=1,
            calls=10, cumulative_seconds=0.5, total_seconds=0.1,
        )
    )
    # Selection logs are emitted by callers holding the policy object
    # (the executor only sees worker-returned dicts); exercise the
    # builder the same way the perf events are exercised above.
    writer.emit(
        policy_selection_event(
            key="k", label="schema", policy="dynamic-throttling",
            time=0.5, selected_mtl=2,
        )
    )
    return read_telemetry(io.StringIO(sink.getvalue()))


class TestEmittedRecordsConform:
    def test_every_record_validates(self, tmp_path):
        records = emit_everything(tmp_path)
        kinds = {r["event"] for r in records}
        assert kinds == set(EVENT_SCHEMAS)  # every kind exercised
        for record in records:
            validate_record(record)

    def test_builders_match_schemas(self):
        built = {
            "point": point_event(
                key="k", workload="w", machine="m", policy="p", seed=None,
                cache_hit=False, wall_seconds=0.1, worker=1, jobs=1,
                makespan=1.0, sim_events=2,
            ),
            "point_failure": point_failure_event(
                key="k", label="l", attempts=3, reason="r", jobs=1
            ),
            "fault": fault_event(key="k", label="l", kind="crash", attempt=0, jobs=1),
            "retry": retry_event(
                key="k", label="l", attempt=0, backoff_seconds=0.0,
                reason="r", jobs=1,
            ),
            "policy_stat": policy_stat_event(
                key="k", label="l", policy="p", stat="windows_closed", value=3.0
            ),
            "policy_selection": policy_selection_event(
                key="k", label="l", policy="p", time=0.5, selected_mtl=2
            ),
            "cache_quarantine": cache_quarantine_event(key="k", path="p", reason="r"),
            "sweep": sweep_event(
                points=1, cache_hits=0, cache_misses=1, wall_seconds=0.1, jobs=1
            ),
            "snapshot_cache": snapshot_cache_event(
                cache="equilibrium", label="l", hits=3, misses=1, entries=1
            ),
            "profile": profile_event(
                label="l", function="f.py:2(g)", rank=1, calls=4,
                cumulative_seconds=0.2, total_seconds=0.1,
            ),
        }
        assert set(built) == set(EVENT_SCHEMAS)
        for kind, record in built.items():
            assert record["event"] == kind
            assert record["schema"] == TELEMETRY_SCHEMA_VERSION
            validate_record(record)


class TestValidateRecordRejections:
    GOOD = {
        "schema": 1,
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
        record = point_failure_event(key="k", label="l", attempts=3, reason="r", jobs=1)
        validate_record(record)
        sweep = sweep_event(
            points=1, cache_hits=0, cache_misses=1, wall_seconds=2, jobs=1
        )
        validate_record(sweep)

    def test_optional_int_accepts_null_not_str(self):
        good = point_event(
            key="k", workload="w", machine="m", policy="p", seed=None,
            cache_hit=True, wall_seconds=0.0, worker=1, jobs=1,
            makespan=1.0, sim_events=1,
        )
        validate_record(good)
        with pytest.raises(MeasurementError, match="'seed'"):
            validate_record({**good, "seed": "42"})


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
