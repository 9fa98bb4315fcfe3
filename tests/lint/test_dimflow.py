"""The dimflow family end to end: algebra, fixpoint, manifest, parity.

The acceptance corpus seeds exactly one cross-module defect — a byte
count flowing two hops (origin -> relay -> schedule) into a parameter
declared seconds — and the FULL rule set must report exactly that one
RPR810 with the whole propagation path, byte-identically between the
serial and fanned-out engines.  The ``--units-output`` manifest over
the same corpus is pinned against a golden document.
"""

import json
import pathlib

from repro.lint import LintEngine, build_rules, render_text
from repro.lint.dimflow import (
    SCALAR,
    UnitAnalysis,
    div_units,
    mul_units,
    parse_unit,
    pow_unit,
    render_unit,
    unit_of_name,
)

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"
CORPUS = FIXTURES / "acceptance" / "units_bytes_two_hops"


def run_full(jobs=1, want_units=False):
    engine = LintEngine(
        rules=build_rules(), root=FIXTURES, jobs=jobs, want_units=want_units
    )
    report = engine.run([CORPUS])
    return engine, report


class TestAlgebra:
    def test_parse_render_roundtrip(self):
        for unit in ("seconds", "bytes/seconds", "seconds^2", "bytes", ""):
            assert render_unit(parse_unit(unit)) == unit

    def test_scalar_is_identity(self):
        assert mul_units(SCALAR, "bytes") == "bytes"
        assert div_units("bytes", SCALAR) == "bytes"

    def test_rates_compose_and_cancel(self):
        rate = div_units("bytes", "seconds")
        assert rate == "bytes/seconds"
        assert mul_units(rate, "seconds") == "bytes"
        assert div_units("seconds", "seconds") == SCALAR

    def test_pure_reciprocal_placeholder_is_not_a_dimension(self):
        # render_unit writes "1/seconds" for a pure denominator; the
        # "1" must parse back as the placeholder, not a base dimension.
        reciprocal = pow_unit("seconds", -1)
        assert reciprocal == "1/seconds"
        assert mul_units("bytes", reciprocal) == "bytes/seconds"
        assert parse_unit(reciprocal) == {"seconds": -1}

    def test_powers(self):
        assert mul_units("seconds", "seconds") == "seconds^2"
        assert pow_unit("seconds", 2) == "seconds^2"
        assert div_units("seconds^2", "seconds") == "seconds"

    def test_suffix_convention(self):
        assert unit_of_name("elapsed_seconds") == "seconds"
        assert unit_of_name("seconds") == "seconds"
        assert unit_of_name("drain_bytes_per_second") == "bytes/seconds"
        assert unit_of_name("secondsish") is None
        assert unit_of_name("budget") is None


class TestAcceptanceCorpus:
    def test_exactly_one_finding_under_the_full_rule_set(self):
        _, report = run_full()
        assert len(report.findings) == 1, [
            f"{f.rule}: {f.message}" for f in report.findings
        ]

    def test_finding_is_rpr810_with_the_full_propagation_path(self):
        _, report = run_full()
        (finding,) = report.findings
        assert finding.rule == "RPR810"
        assert "parameter 'delay_seconds'" in finding.message
        assert "declared seconds but receives bytes" in finding.message
        assert (
            "repro.sim.origin.start -> repro.sim.mid.relay"
            " -> repro.sim.sink.schedule" in finding.message
        )

    def test_finding_lands_on_the_call_site_that_breaks_the_contract(self):
        _, report = run_full()
        (finding,) = report.findings
        assert finding.path.endswith("mid.py")

    def test_serial_and_fanned_reports_are_byte_identical(self):
        _, serial = run_full(jobs=1)
        _, fanned = run_full(jobs=4)
        assert render_text(serial) == render_text(fanned)
        assert [f.fingerprint() for f in serial.findings] == [
            f.fingerprint() for f in fanned.findings
        ]


class TestUnitsManifest:
    def test_manifest_is_deterministic_across_runs(self):
        first_engine, _ = run_full(want_units=True)
        second_engine, _ = run_full(jobs=4, want_units=True)
        assert first_engine.units is not None
        assert first_engine.units.to_json() == second_engine.units.to_json()

    def test_manifest_contents_pin_the_inference(self):
        engine, _ = run_full(want_units=True)
        document = json.loads(engine.units.to_json())
        assert document["version"] == 1
        functions = document["functions"]
        # The middle hop's parameter was *inferred* bytes from its one
        # call site; the sink's parameter is *declared* seconds.
        relay = functions["repro.sim.mid::relay"]
        assert relay["params"] == {"value": "bytes"}
        assert "declared" not in relay
        schedule = functions["repro.sim.sink::schedule"]
        assert schedule["params"] == {"delay_seconds": "seconds"}
        assert schedule["declared"] == ["delay_seconds"]
        assert schedule["returns"] == "seconds"

    def test_manifest_is_sorted_and_newline_terminated(self):
        engine, _ = run_full(want_units=True)
        text = engine.units.to_json()
        assert text.endswith("\n")
        assert text == json.dumps(
            json.loads(text), indent=2, sort_keys=True
        ) + "\n"


class TestSignatureQueries:
    def test_signatures_are_queryable_after_the_run(self):
        engine, _ = run_full(want_units=True)
        analysis = engine.units
        assert isinstance(analysis, UnitAnalysis)
        key = "repro.sim.sink::schedule"
        signature = analysis.signature(key)
        assert signature.param_unit("delay_seconds") == "seconds"
        assert not signature.polymorphic

    def test_unknown_key_yields_an_empty_signature(self):
        engine, _ = run_full(want_units=True)
        signature = engine.units.signature("nowhere::nothing")
        assert signature.params == ()
        assert signature.returns is None


class TestScanCacheCarriesUnitFacts:
    def test_warm_run_reproduces_the_interprocedural_finding(self, tmp_path):
        cache_dir = tmp_path / "cache"

        def run(jobs=1):
            engine = LintEngine(
                rules=build_rules(),
                root=FIXTURES,
                jobs=jobs,
                cache_dir=cache_dir,
                want_units=True,
            )
            report = engine.run([CORPUS])
            return engine, report

        cold_engine, cold = run()
        warm_engine, warm = run(jobs=4)
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(
            list(CORPUS.rglob("*.py"))
        )  # every file served from cache
        assert render_text(cold) == render_text(warm)
        assert cold_engine.units.to_json() == warm_engine.units.to_json()


MIXES = '''"""Unit mixes outside straight-line function code."""

__all__ = ["Window", "pick", "later"]

timeout_seconds = 2.0
buffer_bytes = 4096
slack = timeout_seconds + buffer_bytes


class Window:
    span = timeout_seconds - buffer_bytes


def pick(delay_seconds=timeout_seconds + buffer_bytes):
    return [size_bytes + delay_seconds for size_bytes in (1, 2)]


def later(items, gap_seconds):
    return sorted(items, key=lambda x_bytes: x_bytes + gap_seconds)
'''


class TestMixesInEveryScope:
    """RPR813 checks module-level code, class bodies, default values,
    comprehensions and lambdas — every place an expression runs."""

    def test_each_mix_is_one_finding(self, tmp_path):
        spine = tmp_path / "repro" / "memory"
        spine.mkdir(parents=True)
        (spine / "mixes.py").write_text(MIXES)
        engine = LintEngine(
            rules=build_rules(only=["RPR813"]), enabled={"RPR813"}, root=tmp_path
        )
        report = engine.run([tmp_path])
        assert [f.line for f in report.findings] == [7, 11, 14, 15, 19]
