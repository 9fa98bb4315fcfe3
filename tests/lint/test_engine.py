"""Engine mechanics: walking, suppressions, baselines, report shape."""

import json
import pathlib

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.lint import engine as lint_engine
from repro.lint import (
    LintEngine,
    build_rules,
    layer_for_path,
    load_baseline,
    render_json,
    render_text,
    write_baseline,
)

P = pathlib.Path


def _display_by_resolving(path, root):
    """A report path as the engine first computed it, resolving every
    file whole: relative to the resolved ``root``, else as given."""
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def run(paths, only=None, baseline=None):
    engine = LintEngine(
        rules=build_rules(only=only),
        enabled=set(only) if only else None,
        baseline=baseline or set(),
    )
    return engine.run(paths)


class TestLayerDetection:
    @pytest.mark.parametrize(
        "path, layer",
        [
            (P("src/repro/sim/engine.py"), "sim"),
            (P("src/repro/memory/system.py"), "memory"),
            (P("src/repro/units.py"), "root"),
            (P("tests/sim/test_engine.py"), "tests"),
            (P("tests/lint/fixtures/RPR601/bad/repro/sim/x.py"), "sim"),
            (P("somewhere/else.py"), "unknown"),
        ],
    )
    def test_layers(self, path, layer):
        assert layer_for_path(path) == layer


class TestWalking:
    def test_excluded_directories_are_skipped(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "ok.py").write_text("__all__ = []\n")
        bad_dir = tmp_path / "pkg" / "fixtures"
        bad_dir.mkdir()
        (bad_dir / "broken.py").write_text("def x(:\n")
        report = run([tmp_path])
        assert report.files_scanned == 1
        assert not report.findings

    def test_explicit_file_bypasses_exclusion(self, tmp_path):
        bad_dir = tmp_path / "fixtures"
        bad_dir.mkdir()
        target = bad_dir / "broken.py"
        target.write_text("def x(:\n")
        report = run([target])
        assert [f.rule for f in report.findings] == ["RPR001"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(ReproError, match="does not exist"):
            run([tmp_path / "nope"])

    def test_display_paths_match_resolving_every_file(self, tmp_path, monkeypatch):
        root, outside = tmp_path / "root", tmp_path / "outside"
        (root / "pkg" / "sub").mkdir(parents=True)
        outside.mkdir()
        for path in (root / "pkg" / "a.py", root / "pkg" / "sub" / "b.py",
                     outside / "c.py"):
            path.write_text("")
        (root / "pkg" / "inner.py").symlink_to(root / "pkg" / "sub" / "b.py")
        (root / "pkg" / "escape.py").symlink_to(outside / "c.py")
        (root / "linked").symlink_to(root / "pkg" / "sub", target_is_directory=True)
        (root / "away").symlink_to(outside, target_is_directory=True)
        monkeypatch.chdir(root)
        files = [
            root / "pkg" / "a.py",
            root / "pkg" / "inner.py",  # a linked file
            root / "pkg" / "escape.py",  # a linked file outside the root
            root / "linked" / "b.py",  # under a linked directory
            root / "away" / "c.py",  # under a link leaving the root
            root / "pkg" / "sub" / ".." / "a.py",
            root / "linked" / ".." / "a.py",  # ".." after a link
            outside / "c.py",  # outside the root
            P("pkg") / "sub" / "b.py",  # relative to the working directory
            P("missing.py"),
        ]
        displays = lint_engine._displays(files, root.resolve())
        assert displays == [_display_by_resolving(f, root.resolve()) for f in files]
        # Outside the root a file is shown as given.
        assert displays == [
            "pkg/a.py", "pkg/sub/b.py", files[2].as_posix(), "pkg/sub/b.py",
            files[4].as_posix(), "pkg/a.py", "pkg/a.py", files[7].as_posix(),
            "pkg/sub/b.py", "missing.py",
        ]

    def test_output_is_sorted_and_deterministic(self, tmp_path):
        for name in ("b.py", "a.py"):
            (tmp_path / name).write_text(
                "def f(x=[], y={}):\n    return x, y\n"
            )
        first = run([tmp_path])
        second = run([tmp_path])
        keys = [f.sort_key() for f in first.findings]
        assert keys == sorted(keys)
        assert keys == [f.sort_key() for f in second.findings]
        assert {f.rule for f in first.findings} == {"RPR402"}


class TestSuppressions:
    def test_same_line_suppression(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text(
            "def f(x=[]):  # repro: lint-ok RPR402 -- fixture exercising shared default\n"
            "    return x\n"
        )
        report = run([target])
        assert not report.findings
        assert report.suppressed == 1

    def test_preceding_comment_line_suppression(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text(
            "# repro: lint-ok RPR402 -- shared scratch list, reset by caller\n"
            "def f(x=[]):\n"
            "    return x\n"
        )
        report = run([target])
        assert not report.findings
        assert report.suppressed == 1

    def test_suppression_without_reason_is_a_finding(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("def f(x=[]):  # repro: lint-ok RPR402\n    return x\n")
        report = run([target])
        rules = sorted(f.rule for f in report.findings)
        assert rules == ["RPR002", "RPR402"]  # suppresses nothing

    def test_unknown_rule_id_is_a_finding(self, tmp_path):
        target = tmp_path / "m.py"
        # Concatenation keeps this source file from containing a
        # scannable (and malformed) directive itself.
        target.write_text("X = 1  # repro: lint-ok RPR" "777 -- whatever\n")
        report = run([target])
        assert [f.rule for f in report.findings] == ["RPR002"]
        assert "RPR777" in report.findings[0].message

    def test_suppression_only_covers_its_rule(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text(
            "def f(x=[]):  # repro: lint-ok RPR403 -- wrong rule id on purpose\n"
            "    return x\n"
        )
        report = run([target])
        assert [f.rule for f in report.findings] == ["RPR402"]


class TestRuleSelection:
    def test_only_restricts_rules(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text(
            "def f(x=[]):\n"
            "    try:\n"
            "        return x\n"
            "    except Exception:\n"
            "        return None\n"
        )
        report = run([target], only=["RPR401"])
        assert {f.rule for f in report.findings} == {"RPR401"}

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(ConfigurationError, match="RPR999"):
            build_rules(only=["RPR999"])


class TestBaseline:
    def test_roundtrip_filters_known_findings(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("def f(x=[]):\n    return x\n")
        first = run([target])
        assert len(first.findings) == 1
        baseline_path = tmp_path / "baseline.json"
        write_baseline(first, baseline_path)
        fingerprints = load_baseline(baseline_path)
        second = run([target], baseline=fingerprints)
        assert not second.findings
        assert second.baselined == 1

    def test_baseline_survives_line_shifts(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("def f(x=[]):\n    return x\n")
        fingerprints = {f.fingerprint() for f in run([target]).findings}
        target.write_text(
            "import os\n\n\ndef f(x=[]):\n    return x\n"
        )
        report = run([target], baseline=fingerprints)
        assert not report.findings

    def test_new_findings_still_fail(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("def f(x=[]):\n    return x\n")
        fingerprints = {f.fingerprint() for f in run([target]).findings}
        target.write_text(
            "def f(x=[]):\n    return x\n\n\ndef g(y={}):\n    return y\n"
        )
        report = run([target], baseline=fingerprints)
        assert len(report.findings) == 1
        assert "g()" in report.findings[0].message

    def test_malformed_baseline_rejected(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("{\"fingerprints\": \"not-a-list\"}")
        with pytest.raises(ReproError, match="fingerprints"):
            load_baseline(bad)

    def test_baseline_survives_reformatting(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("def f(a,     b=[]):\n    return b\n")
        fingerprints = {f.fingerprint() for f in run([target]).findings}
        # Collapse the alignment padding: same statement, new spacing.
        target.write_text("def f(a, b=[]):\n    return b\n")
        report = run([target], baseline=fingerprints)
        assert not report.findings

    def test_pre_normalization_baseline_migrates_on_load(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("def f(a, b=[]):\n    return b\n")
        (finding,) = run([target]).findings
        rule, path_part, context = finding.fingerprint().split(":", 2)
        stale = f"{rule}:{path_part}:{context.replace(' ', '   ')}"
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(
            json.dumps({"version": 2, "fingerprints": [stale]})
        )
        report = run([target], baseline=load_baseline(baseline_path))
        assert not report.findings
        assert report.baselined == 1


class TestReporters:
    def make_report(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("def f(x=[]):\n    return x\n")
        return run([target])

    def test_text_report_names_location_and_rule(self, tmp_path):
        text = render_text(self.make_report(tmp_path))
        assert "RPR402" in text
        assert "1 finding(s)" in text

    def test_json_report_is_machine_readable(self, tmp_path):
        document = json.loads(render_json(self.make_report(tmp_path)))
        assert document["version"] == 3
        assert document["summary"]["errors"] == 1
        assert document["summary"]["by_rule"] == {"RPR402": 1}
        (finding,) = document["findings"]
        assert finding["rule"] == "RPR402"
        assert finding["fingerprint"].startswith("RPR402:")

    def test_json_report_carries_wall_time_and_jobs(self, tmp_path):
        document = json.loads(render_json(self.make_report(tmp_path)))
        assert document["jobs"] == 1
        assert isinstance(document["wall_seconds"], float)
        assert document["wall_seconds"] >= 0.0


class TestParallelScan:
    def corpus(self, tmp_path):
        for index in range(6):
            (tmp_path / f"m{index}.py").write_text(
                f"def f{index}(x=[], y={{}}):\n    return x, y\n"
            )
        return tmp_path

    def run_jobs(self, paths, jobs):
        engine = LintEngine(rules=build_rules(), jobs=jobs)
        return engine.run(paths)

    def test_parallel_findings_match_serial_exactly(self, tmp_path):
        corpus = self.corpus(tmp_path)
        serial = self.run_jobs([corpus], jobs=1)
        fanned = self.run_jobs([corpus], jobs=3)
        serial_doc = json.loads(render_json(serial))
        fanned_doc = json.loads(render_json(fanned))
        for document in (serial_doc, fanned_doc):
            document.pop("wall_seconds")
            document.pop("jobs")
        assert serial_doc == fanned_doc  # only wall_seconds/jobs may differ
        assert serial.files_scanned == fanned.files_scanned == 6
        assert fanned.jobs == 3

    def test_parallel_suppressions_still_counted(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text(
            "def f(x=[]):  # repro: lint-ok RPR402 -- exercised in parallel\n"
            "    return x\n"
        )
        (tmp_path / "n.py").write_text("__all__ = []\n")
        report = self.run_jobs([tmp_path], jobs=2)
        assert not report.findings
        assert report.suppressed == 1

    def test_zero_jobs_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="jobs"):
            self.run_jobs([self.corpus(tmp_path)], jobs=0)

    def test_graph_rules_run_in_parent_after_fanout(self, tmp_path):
        spine = tmp_path / "repro" / "sim"
        spine.mkdir(parents=True)
        (spine / "engine.py").write_text(
            '"""Det layer."""\n\nfrom repro.clockutil import stamp\n\n'
            '__all__ = ["tick"]\n\n\ndef tick():\n    return stamp()\n'
        )
        (tmp_path / "repro" / "clockutil.py").write_text(
            '"""Clock."""\n\nimport time\n\n__all__ = ["stamp"]\n\n\n'
            "def stamp():\n    return time.time()\n"
        )
        serial = self.run_jobs([tmp_path], jobs=1)
        fanned = self.run_jobs([tmp_path], jobs=2)
        assert [f.rule for f in serial.findings] == ["RPR601"]
        assert [f.sort_key() for f in serial.findings] == [
            f.sort_key() for f in fanned.findings
        ]
