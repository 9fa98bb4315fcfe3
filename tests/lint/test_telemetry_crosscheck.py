"""Satellite 3: lint vs EVENT_SCHEMAS, statically, in both directions.

Direction one: a source file that *emits* an event name no schema
registers must be reported (RPR301).  Direction two: a schema with no
emitter anywhere in the corpus must be reported as an orphan (RPR302).
Both are exercised against the live registry where possible, and
against injected schemas where the live registry would make the test
depend on unrelated executor code.
"""

import pathlib
import textwrap

from repro.lint import LintEngine, build_rules
from repro.lint.rules.telemetry import registered_events
from repro.runtime.telemetry import EVENT_SCHEMAS


def lint(tmp_path, source, rule_id, schemas):
    target = tmp_path / "emitter.py"
    target.write_text(textwrap.dedent(source))
    rules = build_rules(only=[rule_id], telemetry_schemas=schemas)
    engine = LintEngine(rules=rules, enabled={rule_id}, root=tmp_path)
    return engine.run([target])


class TestUnregisteredEmitReported:
    def test_fake_emit_site_with_unregistered_event(self, tmp_path):
        report = lint(
            tmp_path,
            """\
            def bogus_event():
                return {"schema": 1, "event": "warp_core_breach", "jobs": 1}
            """,
            "RPR301",
            schemas=set(EVENT_SCHEMAS),
        )
        (finding,) = report.findings
        assert finding.rule == "RPR301"
        assert "'warp_core_breach'" in finding.message

    def test_registered_emit_site_passes(self, tmp_path):
        report = lint(
            tmp_path,
            """\
            def fault_record():
                return {"schema": 1, "event": "fault", "jobs": 1}
            """,
            "RPR301",
            schemas=set(EVENT_SCHEMAS),
        )
        assert not report.findings

    def test_unregistered_read_filter_reported(self, tmp_path):
        # The consumer side: filtering telemetry by an event kind that
        # no schema registers is the same drift, caught at the same rule.
        report = lint(
            tmp_path,
            """\
            from repro.runtime.telemetry import read_telemetry

            def load(stream):
                return read_telemetry(stream, event="warp_core_breach")
            """,
            "RPR301",
            schemas=set(EVENT_SCHEMAS),
        )
        (finding,) = report.findings
        assert "'warp_core_breach'" in finding.message


class TestOrphanSchemaFires:
    def test_schema_without_emitter_is_reported(self, tmp_path):
        # Simulate "someone removed the fault emitter": the corpus
        # emits every registered event except one.
        emitted = sorted(set(EVENT_SCHEMAS) - {"fault"})
        lines = [
            f'R{i} = {{"schema": 1, "event": "{name}"}}'
            for i, name in enumerate(emitted)
        ]
        report = lint(
            tmp_path, "\n".join(lines) + "\n", "RPR302", schemas=set(EVENT_SCHEMAS)
        )
        (finding,) = report.findings
        assert finding.rule == "RPR302"
        assert "'fault'" in finding.message

    def test_full_coverage_passes(self, tmp_path):
        lines = [
            f'R{i} = {{"schema": 1, "event": "{name}"}}'
            for i, name in enumerate(sorted(EVENT_SCHEMAS))
        ]
        report = lint(
            tmp_path, "\n".join(lines) + "\n", "RPR302", schemas=set(EVENT_SCHEMAS)
        )
        assert not report.findings


ROOT = pathlib.Path(__file__).resolve().parents[2]


def lint_repo(*dirs, schemas=None):
    rules = build_rules(only=["RPR301", "RPR302"], telemetry_schemas=schemas)
    engine = LintEngine(rules=rules, enabled={"RPR301", "RPR302"}, root=ROOT)
    return engine.run([ROOT / d for d in dirs])


class TestLiveRegistry:
    def test_rules_default_to_live_schemas(self):
        assert registered_events() == set(EVENT_SCHEMAS)

    def test_repo_sources_cover_every_schema(self):
        # The real src/ + tests/ corpus must emit (or filter on) every
        # registered event — otherwise RPR302 would fail `repro lint`.
        report = lint_repo("src", "tests")
        assert not report.findings, [f.message for f in report.findings]

    def test_src_alone_emits_every_schema(self):
        # Program code is the only producer that counts: a test's dict
        # literal must not keep alive a schema no run writes.
        report = lint_repo("src")
        assert not report.findings, [f.message for f in report.findings]

    def test_schema_without_a_src_emitter_fails(self):
        report = lint_repo("src", schemas=set(EVENT_SCHEMAS) | {"policy_selection"})
        (finding,) = report.findings
        assert finding.rule == "RPR302"
        assert "'policy_selection'" in finding.message
