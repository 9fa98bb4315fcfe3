"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import main


class TestListWorkloads:
    def test_lists_all_registered(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("dft", "SC_d128", "SIFT"):
            assert name in out


class TestRatio:
    def test_measures_table2_value(self, capsys):
        assert main(["ratio", "dft"]) == 0
        assert "12.77%" in capsys.readouterr().out

    def test_missing_workload_errors(self, capsys):
        assert main(["ratio"]) == 2
        assert "workload name" in capsys.readouterr().err


class TestRun:
    def test_dynamic_run_reports_speedup_and_mtl(self, capsys):
        assert main(["run", "SC_d128", "--policy", "dynamic"]) == 0
        out = capsys.readouterr().out
        assert "speedup vs conventional" in out
        assert "dominant MTL: 2" in out

    def test_static_policy_spelling(self, capsys):
        assert main(["run", "dft", "--policy", "static:1"]) == 0
        assert "static-mtl-1" in capsys.readouterr().out

    def test_offline_policy(self, capsys):
        assert main(["run", "dft", "--policy", "offline"]) == 0
        assert "offline-exhaustive" in capsys.readouterr().out

    def test_gantt_flag(self, capsys):
        assert main(["run", "dft", "--policy", "conventional", "--gantt"]) == 0
        assert "P0 |" in capsys.readouterr().out

    def test_unknown_policy_errors(self, capsys):
        assert main(["run", "dft", "--policy", "magic"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_non_finite_policy_param_errors(self, capsys):
        assert main(["run", "dft", "--policy", "qos:target_slowdown=nan"]) == 2
        assert "'target_slowdown' must be finite" in capsys.readouterr().err

    def test_unknown_workload_errors(self, capsys):
        assert main(["run", "ghost"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_spec_workload(self, capsys, tmp_path):
        spec = tmp_path / "w.json"
        spec.write_text(json.dumps(
            {"name": "from-spec",
             "phases": [{"pairs": 8, "ratio": 0.3}]}
        ))
        assert main(["run", "--spec", str(spec), "--policy", "static:1"]) == 0
        assert "from-spec" in capsys.readouterr().out

    def test_spec_ratio_past_the_float_range_errors(self, capsys, tmp_path):
        spec = tmp_path / "w.json"
        spec.write_text(json.dumps(
            {"name": "x", "phases": [{"pairs": 4, "ratio": 10**400}]}
        ))
        assert main(["run", "--spec", str(spec)]) == 2
        assert "'ratio' must be positive and finite" in capsys.readouterr().err

    def test_machine_options(self, capsys):
        assert main(
            ["run", "dft", "--channels", "2", "--smt", "2",
             "--policy", "conventional"]
        ) == 0
        assert "i7-860/2ch/smt2" in capsys.readouterr().out


class TestCompare:
    def test_three_policy_table(self, capsys):
        assert main(["compare", "dft"]) == 0
        out = capsys.readouterr().out
        assert "Dynamic Throttling" in out
        assert "Online Exhaustive Search" in out
        assert "Offline Exhaustive Search" in out


class TestCharacterize:
    def test_characterize_report(self, capsys):
        assert main(["characterize", "SIFT"]) == 0
        out = capsys.readouterr().out
        assert "IdleBound" in out
        assert "phase-diverse" in out

    def test_characterize_uniform_workload(self, capsys):
        assert main(["characterize", "dft"]) == 0
        assert "static MTL suffices" in capsys.readouterr().out


class TestSuite:
    def test_suite_csv(self, capsys):
        assert main(["suite", "--workloads", "dft"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0].startswith("workload,machine,policy")
        # 1 workload x 2 machines x 3 policies.
        assert len(lines) == 7


class TestSweep:
    def test_small_sweep(self, capsys):
        assert main(["sweep", "--start", "0.2", "--stop", "0.4",
                     "--step", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "S-MTL" in out
        assert "0.20" in out and "0.40" in out

    def test_invalid_sweep_errors(self, capsys):
        assert main(["sweep", "--start", "2.0", "--stop", "1.0"]) == 2


class TestChaosOptions:
    SWEEP = ["sweep", "--start", "0.2", "--stop", "0.4", "--step", "0.2"]

    def test_chaos_sweep_output_is_bit_identical(self, capsys):
        assert main(self.SWEEP) == 0
        clean = capsys.readouterr().out
        assert main(self.SWEEP + [
            "--retries", "6",
            "--inject-faults", "seed=1,crash=0.25,error=0.15",
        ]) == 0
        assert capsys.readouterr().out == clean

    def test_exhausted_retries_render_failed_rows_and_exit_3(self, capsys):
        assert main(self.SWEEP + [
            "--retries", "0", "--inject-faults", "seed=0,error=1.0",
        ]) == 3
        captured = capsys.readouterr()
        assert "failed" in captured.out
        assert "degraded" in captured.err

    def test_bad_fault_spec_errors(self, capsys):
        assert main(self.SWEEP + ["--inject-faults", "boom=1"]) == 2
        assert "boom" in capsys.readouterr().err

    def test_compare_with_failed_policy_warns_and_exits_3(self, capsys):
        assert main(["compare", "dft"]) == 0
        clean_rows = [
            line for line in capsys.readouterr().out.splitlines()
            if "Dynamic" in line
        ]
        # seed=14/error=0.35 fails the Offline Exhaustive Search point
        # of this comparison but neither the baseline nor the dynamic
        # policy's (verified below: dynamic row unchanged, exit 3).
        code = main(["compare", "dft", "--retries", "0",
                     "--inject-faults", "seed=14,error=0.35"])
        captured = capsys.readouterr()
        assert code == 3
        assert "degraded" in captured.err
        degraded_rows = [
            line for line in captured.out.splitlines() if "Dynamic" in line
        ]
        # Column padding shifts when the failed policy's row vanishes;
        # the numbers themselves must be identical.
        assert [r.split() for r in degraded_rows] == [
            r.split() for r in clean_rows
        ]
        assert "Offline" not in captured.out


class TestLint:
    REPO = pathlib.Path(__file__).resolve().parents[1]
    BAD = '"""Fixture."""\n\ndef f(x=[]):\n    return x\n'

    def test_repo_is_clean(self, capsys):
        # The merge acceptance criterion: `repro lint src tests` exits 0.
        code = main([
            "lint", str(self.REPO / "src"), str(self.REPO / "tests"),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 finding(s)" in out

    def test_findings_exit_1_and_name_the_rule(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        assert main(["lint", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RPR402" in out
        assert "bad.py:3" in out

    def test_json_format_writes_artifact(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        artifact = tmp_path / "lint_report.json"
        assert main([
            "lint", str(bad), "--format", "json", "--output", str(artifact),
        ]) == 1
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads(artifact.read_text())
        assert stdout_doc == file_doc
        assert file_doc["summary"]["by_rule"] == {"RPR402": 1}

    def test_rule_filter(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            '"""Fixture."""\n\n'
            "def f(x=[]):\n"
            "    try:\n"
            "        return x\n"
            "    except Exception:\n"
            "        return None\n"
        )
        assert main(["lint", str(bad), "--rule", "RPR401"]) == 1
        out = capsys.readouterr().out
        assert "RPR401" in out
        assert "RPR402" not in out

    def test_list_rules_prints_catalogue(self, capsys):
        from repro.lint import all_rule_ids

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in all_rule_ids():
            assert rule_id in out

    def test_write_baseline_requires_baseline_path(self, capsys):
        assert main(["lint", "--write-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_baseline_workflow(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        baseline = tmp_path / "lint_baseline.json"
        assert main([
            "lint", str(bad), "--baseline", str(baseline), "--write-baseline",
        ]) == 0
        assert "1 fingerprint(s)" in capsys.readouterr().out
        assert main(["lint", str(bad), "--baseline", str(baseline)]) == 0
        assert "1 baselined" in capsys.readouterr().out

    def test_missing_path_errors(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path / "ghost")]) == 2
        assert "do not exist" in capsys.readouterr().err

    def test_output_dash_streams_json_to_stdout(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        assert main(["lint", str(bad), "--output", "-"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["by_rule"] == {"RPR402": 1}
        assert document["jobs"] == 1

    def test_jobs_output_matches_serial(self, capsys, tmp_path):
        for index in range(4):
            (tmp_path / f"bad{index}.py").write_text(self.BAD)
        assert main(["lint", str(tmp_path), "--output", "-"]) == 1
        serial = json.loads(capsys.readouterr().out)
        assert main(
            ["lint", str(tmp_path), "--output", "-", "--jobs", "2"]
        ) == 1
        fanned = json.loads(capsys.readouterr().out)
        for document in (serial, fanned):
            document.pop("wall_seconds")
            document.pop("jobs")
        assert serial == fanned

    def test_jobs_must_be_positive(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path), "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_graph_output_writes_call_graph_artifact(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(self.BAD)
        artifact = tmp_path / "callgraph.json"
        assert main(
            ["lint", str(bad), "--graph-output", str(artifact)]
        ) == 1
        capsys.readouterr()
        document = json.loads(artifact.read_text())
        assert document["version"] == 1
        assert document["files"] == 1
        assert {"key", "edges", "unknown_callees"} <= set(
            document["nodes"][0]
        )

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "0 no findings" in out


class TestPerfbench:
    def test_quick_report_with_profile_and_check(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        # An always-passing gate: any machine beats these floors.
        baseline.write_text(json.dumps({
            "schema": 3,
            "seed": {"fig13_wall_seconds_per_point": 0.02,
                     "engine_events_per_sec": 10000.0,
                     "fig14_point_wall_seconds": 0.006},
            "current": {"engine_events_per_sec": 1.0},
            "floors": {"engine_events_per_sec": 1.0},
        }))
        output = tmp_path / "bench.json"
        assert main([
            "perfbench", "--quick", "--profile", "--check",
            "--output", str(output),
            "--baseline", str(baseline),
        ]) == 0
        out = capsys.readouterr().out
        assert "perf check passed" in out
        assert "profile (top by cumulative time):" in out

        report = json.loads(output.read_text())
        assert report["schema"] == 3
        assert report["quick"] is True
        for section in ("equilibrium", "engine", "fig13", "fig14"):
            assert section in report
            spread = report[section]["spread"]
            for stats in spread.values():
                assert stats["min"] <= stats["median"] <= stats["max"]
        assert report["engine"]["events_per_sec"] > 0
        assert report["equilibrium"]["pure_memoized_speedup"] > 1.0
        assert report["equilibrium"]["mixed_memoized_speedup"] > 1.0
        assert report["fig13"]["points"] == 16
        assert "fig13_wall_vs_seed" in report["speedups"]
        assert "engine_events_per_sec_vs_seed" in report["speedups"]
        assert report["profile"]

    def test_check_failure_exits_4(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        # An impossible gate: no machine reaches 1e12 events/sec.
        baseline.write_text(json.dumps(
            {"schema": 1, "current": {"engine_events_per_sec": 1e12}}
        ))
        assert main([
            "perfbench", "--quick", "--output", "-",
            "--baseline", str(baseline), "--check",
        ]) == 4
        captured = capsys.readouterr()
        assert "regressed" in captured.err
        json.loads(captured.out)  # "-" streams the raw report JSON

    def test_floor_failure_exits_4(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        # Passing current gate, impossible floor: isolates the
        # floors check.
        baseline.write_text(json.dumps({
            "schema": 3,
            "current": {"engine_events_per_sec": 1.0},
            "floors": {"engine_events_per_sec": 1e12},
        }))
        assert main([
            "perfbench", "--quick", "--output", str(tmp_path / "b.json"),
            "--baseline", str(baseline), "--check",
        ]) == 4
        assert "below floor" in capsys.readouterr().err

    def test_unknown_floor_metric_fails(self, capsys, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({
            "schema": 3,
            "current": {"engine_events_per_sec": 1.0},
            "floors": {"no_such_metric": 1.0},
        }))
        assert main([
            "perfbench", "--quick", "--output", str(tmp_path / "b.json"),
            "--baseline", str(baseline), "--check",
        ]) == 4
        assert "unknown metric" in capsys.readouterr().err

    def test_missing_baseline_check_fails(self, capsys, tmp_path):
        assert main([
            "perfbench", "--quick", "--output", str(tmp_path / "b.json"),
            "--baseline", str(tmp_path / "absent.json"), "--check",
        ]) == 4
        assert "no baseline" in capsys.readouterr().err
