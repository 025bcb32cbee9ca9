"""tools/bench_compare.py: format loading, thresholds, exit codes."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_compare",
    pathlib.Path(__file__).parent.parent / "tools" / "bench_compare.py",
)
bench_compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_compare)


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_loads_plain_mapping_format(tmp_path):
    path = tmp_path / "b.json"
    _write(path, {"perfsmoke_serial_uncached": 0.9, "opt": 0.3})
    assert bench_compare.load_means(path) == {
        "perfsmoke_serial_uncached": 0.9, "opt": 0.3,
    }


def test_rejects_unknown_format(tmp_path):
    path = tmp_path / "b.json"
    _write(path, {"benchmarks": "not a list"})
    with pytest.raises(SystemExit):
        bench_compare.load_means(path)


def test_within_threshold_passes(tmp_path, capsys):
    base = _write(tmp_path / "base.json", {"a": 1.0, "b": 2.0})
    cur = _write(tmp_path / "cur.json", {"a": 1.1, "b": 1.5})
    assert bench_compare.main([base, cur]) == 0
    assert "OK" in capsys.readouterr().out


def test_regression_fails(tmp_path, capsys):
    base = _write(tmp_path / "base.json", {"a": 1.0, "b": 2.0})
    cur = _write(tmp_path / "cur.json", {"a": 1.3, "b": 2.0})
    assert bench_compare.main([base, cur]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "+30.0%" in out


def test_custom_threshold(tmp_path):
    base = _write(tmp_path / "base.json", {"a": 1.0})
    cur = _write(tmp_path / "cur.json", {"a": 1.3})
    assert bench_compare.main([base, cur, "--threshold", "0.5"]) == 0
    assert bench_compare.main([base, cur, "--threshold", "0.1"]) == 1


def test_added_and_removed_benchmarks_never_fail(tmp_path, capsys):
    base = _write(tmp_path / "base.json", {"gone": 1.0, "kept": 1.0})
    cur = _write(tmp_path / "cur.json", {"kept": 1.0, "fresh": 5.0})
    assert bench_compare.main([base, cur]) == 0
    out = capsys.readouterr().out
    assert "removed" in out and "new" in out


def test_missing_file_is_usage_error(tmp_path):
    cur = _write(tmp_path / "cur.json", {"a": 1.0})
    with pytest.raises(SystemExit):
        bench_compare.main([str(tmp_path / "nope.json"), cur])


def test_json_out_report(tmp_path):
    base = _write(tmp_path / "base.json", {"a": 1.0, "b": 2.0})
    cur = _write(tmp_path / "cur.json", {"a": 1.5, "b": 2.0})
    report = tmp_path / "report.json"
    assert bench_compare.main(
        [base, cur, "--json-out", str(report)]) == 1
    payload = json.loads(report.read_text())
    assert payload["failed"] is True
    by_name = {r["name"]: r for r in payload["results"]}
    assert by_name["a"]["verdict"] == "REGRESSION"
    assert by_name["b"]["verdict"] == "ok"
    assert by_name["a"]["delta"] == 0.5


# --- speed budgets -------------------------------------------------------


def test_budget_max_regression_pct(tmp_path):
    base = _write(tmp_path / "base.json", {"a": 1.0})
    cur_ok = _write(tmp_path / "ok.json", {"a": 1.4})
    cur_bad = _write(tmp_path / "bad.json", {"a": 1.6})
    budget = _write(tmp_path / "budget.json",
                    {"a": {"max_regression_pct": 50}})
    # Raise the generic threshold out of the way: only the budget gates.
    common = ["--threshold", "10", "--budget", budget]
    assert bench_compare.main([base, cur_ok, *common]) == 0
    assert bench_compare.main([base, cur_bad, *common]) == 1


def test_budget_min_speedup_vs_baseline_entry(tmp_path, capsys):
    base = _write(tmp_path / "base.json", {"a": 1.0})
    cur = _write(tmp_path / "cur.json", {"a": 0.4})
    budget = _write(tmp_path / "budget.json",
                    {"a": {"min_speedup": 2.0}})
    assert bench_compare.main([base, cur, "--budget", budget]) == 0
    assert "2.50x baseline" in capsys.readouterr().out
    slow = _write(tmp_path / "slow.json", {"a": 0.6})
    assert bench_compare.main(
        [base, slow, "--threshold", "10", "--budget", budget]) == 1


def test_budget_same_run_ratio_rule(tmp_path):
    """`vs` compares two entries of the *current* file — the
    machine-independent gate."""
    base = _write(tmp_path / "base.json", {})
    cur = _write(tmp_path / "cur.json", {"fast": 1.0, "slow": 2.5})
    budget = _write(tmp_path / "budget.json",
                    {"fast": {"min_speedup": 2.0, "vs": "slow"}})
    assert bench_compare.main([base, cur, "--budget", budget]) == 0
    budget_hard = _write(tmp_path / "hard.json",
                         {"fast": {"min_speedup": 3.0, "vs": "slow"}})
    assert bench_compare.main([base, cur, "--budget", budget_hard]) == 1


def test_budget_vs_baseline_other_name(tmp_path, capsys):
    """`vs_baseline` proves a new execution mode against a committed
    measurement recorded under a different name."""
    base = _write(tmp_path / "base.json", {"sweep_fixed": 1.0})
    cur = _write(tmp_path / "cur.json",
                 {"sweep_fixed": 0.8, "sweep_adaptive": 0.2})
    budget = _write(tmp_path / "budget.json", {
        "sweep_adaptive": [
            {"min_speedup": 2.0, "vs_baseline": "sweep_fixed"},
            {"min_speedup": 3.0, "vs": "sweep_fixed"},
        ],
    })
    assert bench_compare.main([base, cur, "--budget", budget]) == 0
    out = capsys.readouterr().out
    assert "5.00x baseline[sweep_fixed]" in out
    assert "4.00x current[sweep_fixed]" in out


def test_budget_missing_benchmark_fails(tmp_path, capsys):
    base = _write(tmp_path / "base.json", {})
    cur = _write(tmp_path / "cur.json", {"other": 1.0})
    budget = _write(tmp_path / "budget.json",
                    {"gone": {"min_speedup": 1.0}})
    assert bench_compare.main([base, cur, "--budget", budget]) == 1
    assert "missing from current" in capsys.readouterr().out


def test_budget_rejects_malformed_rules(tmp_path):
    base = _write(tmp_path / "base.json", {"a": 1.0})
    cur = _write(tmp_path / "cur.json", {"a": 1.0})
    for bad in (
        {"a": {"min_speedup": 2.0, "vs": "b", "vs_baseline": "c"}},
        {"a": {"vs": "b"}},
        {"a": {"typo_key": 1}},
        {"a": {}},
        {"a": []},
        {"a": 3},
    ):
        budget = _write(tmp_path / "bad_budget.json", bad)
        with pytest.raises(SystemExit):
            bench_compare.main([base, cur, "--budget", budget])


def test_budget_results_land_in_json_report(tmp_path):
    base = _write(tmp_path / "base.json", {"a": 1.0})
    cur = _write(tmp_path / "cur.json", {"a": 0.5})
    budget = _write(tmp_path / "budget.json",
                    {"a": {"min_speedup": 2.0}})
    report = tmp_path / "report.json"
    assert bench_compare.main(
        [base, cur, "--budget", budget,
         "--json-out", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["budget_results"][0]["verdict"] == "ok"
    assert payload["budget_results"][0]["speedup"] == 2.0


def test_closing_stdout_early_is_quiet(tmp_path):
    """``bench_compare.py A B --budget ... | head -1``: the reader goes
    away after one line of a long comparison; no traceback."""
    timings = {f"bench_{i:05d}": 0.1 for i in range(8000)}
    a = _write(tmp_path / "a.json", timings)
    b = _write(tmp_path / "b.json", timings)
    root = pathlib.Path(__file__).parent.parent
    proc = subprocess.Popen(
        [sys.executable, str(root / "tools" / "bench_compare.py"), a, b,
         "--budget", str(root / "benchmarks" / "budgets.json")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"benchmark comparison")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait(timeout=60)
    assert err == b""
    assert proc.returncode == 1

