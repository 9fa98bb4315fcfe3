"""Fixture-corpus sweep: every rule catches its bad and passes its good.

Each rule id has a directory under ``tests/lint/fixtures/<ID>/`` with a
``bad/`` corpus (must produce at least one finding *of that rule*) and
a ``good/`` corpus (must produce none).  Layer-scoped rules embed a
``repro/<layer>/`` spine in their fixture paths, which is exactly how
:func:`repro.lint.engine.layer_for_path` resolves layers.  The test is
parametrized over the registry, so adding a rule without fixtures
fails here — the corpus can never lag the rule set.

Beyond the per-rule sweep, ``snapshots/fixture_findings.json`` pins
the distinct ``(rule, path, line)`` triples of the findings the FULL
rule set reports on every corpus (fixtures and acceptance corpora
alike): an oracle for refactors of the lint stack, which must leave
it unchanged.
"""

import json
import pathlib

import pytest

from repro.lint import LintEngine, all_rule_ids, build_rules

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
GOLDEN = pathlib.Path(__file__).resolve().parent / "snapshots" / "fixture_findings.json"


def run_rule(rule_id, corpus, schemas=None):
    rules = build_rules(only=[rule_id], telemetry_schemas=schemas)
    engine = LintEngine(rules=rules, enabled={rule_id}, root=FIXTURES)
    return engine.run([corpus])


def injected_schemas(rule_id):
    config = FIXTURES / rule_id / "config.json"
    if config.exists():
        return set(json.loads(config.read_text())["schemas"])
    return None


def corpora():
    """``"<ID>/bad"``, ``"<ID>/good"`` and ``"acceptance/<name>"``."""
    names = []
    for rule_dir in sorted(p for p in FIXTURES.iterdir() if p.is_dir()):
        if rule_dir.name == "acceptance":
            names += [
                f"acceptance/{c.name}"
                for c in sorted(rule_dir.iterdir())
                if c.is_dir()
            ]
        else:
            names += [f"{rule_dir.name}/{kind}" for kind in ("bad", "good")]
    return names


def full_rule_set_findings(corpus):
    rules = build_rules(telemetry_schemas=injected_schemas(corpus.split("/")[0]))
    report = LintEngine(rules=rules, root=FIXTURES).run([FIXTURES / corpus])
    return sorted({(f.rule, f.path, f.line) for f in report.findings})


@pytest.mark.parametrize("rule_id", all_rule_ids())
class TestEveryRuleHasFixtures:
    def test_fixture_directories_exist(self, rule_id):
        assert (FIXTURES / rule_id / "bad").is_dir(), (
            f"{rule_id} ships without a known-bad fixture corpus"
        )
        assert (FIXTURES / rule_id / "good").is_dir(), (
            f"{rule_id} ships without a known-good fixture corpus"
        )

    def test_bad_corpus_fails(self, rule_id):
        report = run_rule(
            rule_id, FIXTURES / rule_id / "bad", injected_schemas(rule_id)
        )
        assert report.findings, f"{rule_id} missed its known-bad fixture"
        assert all(f.rule == rule_id for f in report.findings)

    def test_good_corpus_passes(self, rule_id):
        report = run_rule(
            rule_id, FIXTURES / rule_id / "good", injected_schemas(rule_id)
        )
        assert not report.findings, (
            f"{rule_id} false-positives on its known-good fixture: "
            f"{[f.message for f in report.findings]}"
        )


class TestFindingsGolden:
    GOLDEN_FINDINGS = json.loads(GOLDEN.read_text())

    def test_golden_covers_every_corpus(self):
        assert sorted(self.GOLDEN_FINDINGS) == corpora()

    @pytest.mark.parametrize("corpus", corpora())
    def test_full_rule_set_matches_golden(self, corpus):
        expected = [tuple(entry) for entry in self.GOLDEN_FINDINGS[corpus]]
        assert full_rule_set_findings(corpus) == expected


class TestFixtureFindingDetails:
    def test_wallclock_names_the_call(self):
        # Three sinks on one line inside the deterministic layer: the
        # zero-length-path case reports each call.
        report = run_rule("RPR601", FIXTURES / "RPR601" / "bad")
        messages = " ".join(f.message for f in report.findings)
        assert "time.time()" in messages
        assert "datetime.datetime.now()" in messages
        assert "time.perf_counter()" in messages  # aliased import resolved

    def test_layer_scoping_allows_runtime_wallclock(self):
        # The good corpus contains a time.perf_counter() under
        # repro/runtime/ — nothing in the model layers reaches it, and
        # that, not luck, is what passes it.
        good = FIXTURES / "RPR601" / "good" / "repro" / "runtime" / "measured.py"
        assert "perf_counter" in good.read_text()

    def test_suppression_with_reason_is_counted(self):
        report = run_rule("RPR401", FIXTURES / "RPR401" / "good")
        assert report.suppressed == 1

    def test_orphan_schema_names_the_missing_event(self):
        report = run_rule(
            "RPR302", FIXTURES / "RPR302" / "bad", schemas={"alpha", "beta"}
        )
        (finding,) = report.findings
        assert "'beta'" in finding.message
