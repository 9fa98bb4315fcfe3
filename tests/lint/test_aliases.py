"""Folded rule ids stay accepted where users type them.

RPR101/RPR103/RPR104 are the zero-length-path case of
RPR601/RPR603/RPR604, RPR801/RPR802 are RPR813, and RPR904/RPR905
(capture-then-mutate, in-place mutation) are write shapes of the
memo-key rule RPR202.  The one alias table (``RULE_ALIASES``) maps
them for ``# repro: lint-ok`` comments, ``--rule`` and ``--explain``;
the catalogue (``--list-rules``, the SARIF driver, the docs) lists
only the surviving ids.
"""

import json

import pytest

from repro.cli import main
from repro.lint import (
    RULE_ALIASES,
    LintEngine,
    all_rule_ids,
    build_rules,
    explain_rule,
    render_sarif,
    rule_catalogue,
)

WALL_CLOCK_SOURCE = (
    '"""Det layer."""\n\nimport time\n\n__all__ = ["stamp"]\n\n\n'
    "def stamp():\n"
    "    return time.time()  # repro: lint-ok RPR" "101 -- {reason}\n"
)


#: A declared memo-key field mutated in place outside construction.
MEMO_SOURCE = (
    '"""Core layer."""\n\n__all__ = ["Book"]\n\n\n'
    "class Book:\n"
    '    MEMO_KEY = ("parts",)\n\n'
    "    def __init__(self, parts):\n"
    "        self.parts = list(parts)\n\n"
    "    def widen(self, part):\n"
    "        self.parts.append(part){comment}\n"
)


def memo_file(tmp_path, comment=""):
    spine = tmp_path / "repro" / "core"
    spine.mkdir(parents=True)
    target = spine / "book.py"
    target.write_text(MEMO_SOURCE.format(comment=comment))
    return target


def det_layer_file(tmp_path, source):
    spine = tmp_path / "repro" / "sim"
    spine.mkdir(parents=True)
    target = spine / "clock.py"
    target.write_text(source)
    return target


class TestSuppressionAliases:
    def test_old_id_silences_the_surviving_rule(self, tmp_path):
        target = det_layer_file(
            tmp_path, WALL_CLOCK_SOURCE.format(reason="fixture clock")
        )
        report = LintEngine(rules=build_rules(), root=tmp_path).run([target])
        assert report.findings == []
        assert report.suppressed == 1

    def test_the_same_line_without_the_comment_is_rpr601(self, tmp_path):
        source = WALL_CLOCK_SOURCE.format(reason="x").split("  #")[0] + "\n"
        target = det_layer_file(tmp_path, source)
        report = LintEngine(rules=build_rules(), root=tmp_path).run([target])
        assert [(f.rule, f.line) for f in report.findings] == [("RPR601", 9)]

    def test_missing_reason_names_the_surviving_id(self, tmp_path):
        target = det_layer_file(
            tmp_path,
            WALL_CLOCK_SOURCE.format(reason="x").replace(" -- x", ""),
        )
        report = LintEngine(rules=build_rules(), root=tmp_path).run([target])
        assert sorted(f.rule for f in report.findings) == ["RPR002", "RPR601"]
        (meta,) = [f for f in report.findings if f.rule == "RPR002"]
        assert "RPR601" in meta.message


@pytest.mark.parametrize("old", ["RPR904", "RPR905"])
class TestMemoKeyAliases:
    def test_old_id_silences_rpr202(self, tmp_path, old):
        target = memo_file(tmp_path, f"  # repro: lint-ok {old} -- fixture")
        report = LintEngine(rules=build_rules(), root=tmp_path).run([target])
        assert report.findings == []
        assert report.suppressed == 1

    def test_rule_flag_runs_rpr202(self, tmp_path, capsys, old):
        memo_file(tmp_path)
        code = main(["lint", str(tmp_path), "--rule", old, "--output", "-"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert [(f["rule"], f["line"]) for f in report["findings"]] == [
            ("RPR202", 13)
        ]

    def test_explain_prints_the_memo_safety_section(self, old):
        surviving = explain_rule("RPR202").splitlines()
        assert "### Memo safety (RPR201–RPR202)" in surviving
        assert explain_rule(old).splitlines() == (
            surviving[:1] + [f"({old} was folded into RPR202)"] + surviving[1:]
        )


class TestRuleAndExplainAliases:
    def test_rule_flag_runs_the_surviving_rule(self, tmp_path, capsys):
        spine = tmp_path / "repro" / "core"
        spine.mkdir(parents=True)
        (spine / "keys.py").write_text(
            '"""Det layer."""\n\n__all__ = ["key"]\n\n\n'
            "def key(name):\n    return hash(name)\n"
        )
        code = main(
            ["lint", str(tmp_path), "--rule", "RPR104", "--output", "-"]
        )
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert [f["rule"] for f in report["findings"]] == ["RPR604"]

    def test_build_rules_maps_every_alias(self):
        for old, new in RULE_ALIASES.items():
            assert [rule.id for rule in build_rules(only=[old])] == [new]

    def test_explain_prints_the_surviving_section(self):
        surviving = explain_rule("RPR813").splitlines()
        assert surviving[0].startswith("RPR813: ")
        assert "RPR810–RPR814" in "\n".join(surviving)
        assert explain_rule("RPR802").splitlines() == (
            surviving[:1] + ["(RPR802 was folded into RPR813)"] + surviving[1:]
        )


class TestCatalogueListsNoFoldedId:
    def test_registry_and_list_rules(self, capsys):
        assert not set(RULE_ALIASES) & set(all_rule_ids())
        assert set(RULE_ALIASES.values()) <= set(all_rule_ids())
        assert main(["lint", "--list-rules"]) == 0
        listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
        assert listed == set(all_rule_ids())
        assert not listed & set(RULE_ALIASES)

    def test_sarif_driver(self, tmp_path):
        target = tmp_path / "m.py"
        target.write_text("X = 1\n")
        report = LintEngine(rules=build_rules(), root=tmp_path).run([target])
        driver = json.loads(render_sarif(report))["runs"][0]["tool"]["driver"]
        ids = {rule["id"] for rule in driver["rules"]}
        assert ids == {str(entry["id"]) for entry in rule_catalogue()}
        assert not ids & set(RULE_ALIASES)
