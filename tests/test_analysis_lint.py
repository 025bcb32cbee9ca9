"""Determinism sanitizer: rule fixtures, baseline, driver, CLI."""

import io
import json
import pathlib

import pytest

import repro
from repro.analysis.baseline import (
    DEFAULT_BASELINE_PATH,
    Baseline,
    BaselineEntry,
)
from repro.analysis.linter import (
    canonical_path,
    lint_file,
    lint_paths,
    run_lint,
)
from repro.analysis.rules import RULES, RULES_BY_ID
from repro.errors import ConfigurationError

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "analysis"
ALL_RULE_IDS = [rule.rule_id for rule in RULES]


# -- rule catalog ------------------------------------------------------


def test_catalog_has_at_least_ten_rules():
    assert len(RULES) >= 10
    assert len(RULES_BY_ID) == len(RULES)  # ids unique
    for rule in RULES:
        assert rule.rule_id.startswith("DET")
        assert rule.title and rule.fixit


# -- one positive + one negative fixture per rule ----------------------


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_positive_fixture_triggers_exactly_its_rule(rule_id):
    findings = lint_file(FIXTURES / f"{rule_id.lower()}_pos.py")
    assert findings, f"{rule_id} positive fixture produced no findings"
    assert {f.rule_id for f in findings} == {rule_id}
    for f in findings:
        assert f.snippet  # the offending source line is captured
        assert f.line >= 1


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_negative_fixture_is_clean(rule_id):
    findings = lint_file(FIXTURES / f"{rule_id.lower()}_neg.py")
    assert findings == []


def test_finding_render_includes_fixit():
    finding = lint_file(FIXTURES / "det001_pos.py")[0]
    text = finding.render()
    assert "DET001" in text
    assert RULES_BY_ID["DET001"].fixit.split(";")[0] in text


# -- baseline suppression ----------------------------------------------


def _one_finding():
    return lint_file(FIXTURES / "det005_pos.py")[0]


def test_baseline_suppresses_matching_finding():
    f = _one_finding()
    baseline = Baseline(entries=[BaselineEntry(
        rule=f.rule_id, path=f.path, scope=f.scope, snippet=f.snippet,
        justification="fixture")])
    report = lint_paths([FIXTURES / "det005_pos.py"], baseline=baseline)
    assert f.key() in {s.key() for s in report.suppressed}
    assert all(g.key() != f.key() for g in report.findings)
    assert report.stale_baseline == []


def test_baseline_key_ignores_line_numbers():
    f = _one_finding()
    assert f.line not in f.key()


def test_stale_baseline_entries_are_reported():
    baseline = Baseline(entries=[BaselineEntry(
        rule="DET001", path="repro/nonexistent.py", scope="f",
        snippet="time.time()", justification="stale")])
    report = lint_paths([FIXTURES / "det001_neg.py"], baseline=baseline)
    assert len(report.stale_baseline) == 1
    assert "nonexistent" in report.render()


def test_baseline_rejects_duplicates_and_unknown_rules(tmp_path):
    entry = {"rule": "DET001", "path": "p.py", "scope": "s",
             "snippet": "x", "justification": "j"}
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps({"entries": [entry, entry]}))
    with pytest.raises(ConfigurationError):
        Baseline.load(dup)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"entries": [dict(entry, rule="NOPE")]}))
    with pytest.raises(ConfigurationError):
        Baseline.load(bad)


def test_prune_keeps_non_ascii_comment_bytes(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text("VALUE = 1\n")
    comment = "Intentional hits \u2014 see docs/ANALYSIS.md"
    bl = tmp_path / "baseline.json"
    bl.write_text(json.dumps({
        "comment": comment,
        "entries": [{"rule": "DET001", "path": "gone.py", "scope": "f",
                     "snippet": "time.time()",
                     "justification": "code was deleted"}]},
        ensure_ascii=False), encoding="utf-8")
    assert run_lint([str(target)], baseline_path=str(bl),
                    prune_baseline=True, out=io.StringIO()) == 1
    raw = bl.read_bytes()
    assert json.dumps(comment, ensure_ascii=False).encode("utf-8") in raw
    assert b"\\u2014" not in raw


# -- the merged tree is the ultimate fixture ---------------------------


def test_repro_package_is_lint_clean_under_checked_in_baseline():
    package_dir = pathlib.Path(repro.__file__).parent
    baseline = Baseline.load(DEFAULT_BASELINE_PATH)
    report = lint_paths([package_dir], baseline=baseline)
    assert report.clean, report.render()
    assert report.stale_baseline == [], report.render()
    assert report.suppressed  # the baseline is load-bearing, not empty


def test_checked_in_baseline_entries_all_carry_justifications():
    baseline = Baseline.load(DEFAULT_BASELINE_PATH)
    for entry in baseline.entries:
        assert entry.justification.strip()


# -- driver behaviour --------------------------------------------------


def test_lint_report_is_deterministic():
    targets = [FIXTURES]
    first = lint_paths(targets).render()
    second = lint_paths(targets).render()
    assert first == second


def test_canonical_path_is_machine_independent():
    import repro.cli as cli_mod
    p = canonical_path(pathlib.Path(cli_mod.__file__))
    assert p == "repro/cli.py"


def test_run_lint_exit_codes():
    out = io.StringIO()
    assert run_lint([str(FIXTURES / "det001_pos.py")], out=out) == 1
    assert run_lint([str(FIXTURES / "det001_neg.py")], out=out) == 0
    assert "DET001" in out.getvalue()


def test_run_lint_json_format():
    out = io.StringIO()
    code = run_lint([str(FIXTURES / "det009_pos.py")],
                    output_format="json", out=out)
    assert code == 1
    payload = json.loads(out.getvalue())
    assert payload["files_checked"] == 1
    assert {f["rule_id"] for f in payload["findings"]} == {"DET009"}


def test_missing_target_raises():
    with pytest.raises(ConfigurationError):
        lint_paths(["does/not/exist"])


def test_cli_analyze_lint(capsys):
    from repro.cli import main
    assert main(["analyze", "lint",
                 str(FIXTURES / "det003_pos.py")]) == 1
    assert "DET003" in capsys.readouterr().out
    assert main(["analyze", "lint",
                 str(FIXTURES / "det003_neg.py")]) == 0
