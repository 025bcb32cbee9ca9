"""repro.obs.attribution: the cross-layer interference ranking, plus
the golden CLI fixture for ``repro trace summarize``."""

from __future__ import annotations

import pathlib

import pytest

from repro.errors import ConfigurationError
from repro.obs.attribution import NoiseAttribution
from repro.obs.export import write_jsonl
from repro.obs.tracer import Tracer

GOLDEN = pathlib.Path(__file__).parent / "golden"


def sample_tracer() -> Tracer:
    t = Tracer()
    t.span("kernel", "sched_switch", ts=0.0, duration=2e-3, actor="kworker")
    t.span("kernel", "sched_switch", ts=1.0, duration=5e-3, actor="kworker")
    t.span("ikc", "msg0", ts=0.0, duration=1.3e-6, actor="lwk->linux")
    t.event("faults", "oom_kill", ts=2.0, actor="job-a")
    return t


def test_record_and_rank():
    attr = NoiseAttribution.from_tracer(sample_tracer())
    rows = attr.rank()
    assert [(layer, s.actor) for layer, s in rows] == [
        ("kernel", "kworker"), ("ikc", "lwk->linux"), ("faults", "job-a")]
    kworker = rows[0][1]
    assert kworker.count == 2
    assert kworker.total_time == pytest.approx(7e-3)
    assert kworker.max_duration == pytest.approx(5e-3)
    # Instants count as events with zero stolen time.
    assert rows[2][1].total_time == 0.0


def test_rank_tie_break_is_deterministic():
    attr = NoiseAttribution()
    attr.record("ikc", "b", 1.0)
    attr.record("ikc", "a", 1.0)
    attr.record("kernel", "a", 1.0)
    assert [(layer, s.actor) for layer, s in attr.rank()] == [
        ("ikc", "a"), ("ikc", "b"), ("kernel", "a")]


def test_unknown_layer_rejected():
    with pytest.raises(ConfigurationError, match="unknown trace layer"):
        NoiseAttribution().record("nope", "x", 1.0)


def test_actor_falls_back_to_event_name():
    t = Tracer()
    t.span("kernel", "sched_switch", ts=0.0, duration=1.0)
    attr = NoiseAttribution.from_tracer(t)
    assert attr.layer_report("kernel")[0].actor == "sched_switch"


def test_from_jsonl_round_trips(tmp_path):
    path = write_jsonl(sample_tracer(), str(tmp_path / "t.jsonl"))
    attr = NoiseAttribution.from_jsonl(path)
    direct = NoiseAttribution.from_tracer(sample_tracer())
    assert attr.rank() != []
    for (l1, s1), (l2, s2) in zip(attr.rank(), direct.rank()):
        assert (l1, s1.actor, s1.count) == (l2, s2.actor, s2.count)
        # JSONL stores microseconds rounded to 1 ns.
        assert s1.total_time == pytest.approx(s2.total_time, abs=1e-9)


def test_from_jsonl_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="bad.jsonl:1"):
        NoiseAttribution.from_jsonl(str(bad))
    bad.write_text('{"name": "x"}\n', encoding="utf-8")
    with pytest.raises(ConfigurationError, match="not a trace event"):
        NoiseAttribution.from_jsonl(str(bad))


def test_empty_report():
    assert NoiseAttribution().report() == "no trace events recorded"


def test_report_table_shape():
    report = NoiseAttribution.from_tracer(sample_tracer()).report(top_n=2)
    lines = report.splitlines()
    assert lines[0] == "Top 2 interference actors across the stack"
    assert "Layer" in lines[1] and "Worst (us)" in lines[1]
    assert "kworker" in report and "job-a" not in report  # top 2 only


def test_cli_summarize_matches_golden_fixture(capsys):
    """Satellite (f): the trace summarize table is pinned byte-for-byte
    against a checked-in fixture (regenerate with
    tools/gen_trace_fixture.py)."""
    from repro.cli import main

    rc = main(["trace", "summarize",
               str(GOLDEN / "trace_faults_seed0.jsonl"), "--top", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    expected = (GOLDEN / "trace_summary_seed0.txt").read_text(
        encoding="utf-8")
    assert out == expected
