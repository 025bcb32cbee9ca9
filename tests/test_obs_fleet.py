"""repro.obs.fleet: the deterministic fleet report, its exports, the
forensic rollups, SLO evaluation, and the health console.

The acceptance bar: ``FleetAggregator.report()`` (and its chrome/prom
renderings) is byte-identical for 1..N workers and across re-runs of
the same submission sequence — telemetry held to the same
reproducibility standard as the artifacts it describes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys

import pytest

from repro.errors import (
    ConfigurationError,
    JournalCorruptionError,
    ServiceError,
)
from repro.faults.tolerance import RetryPolicy
from repro.obs.export import chrome_trace_json, ensure_valid_chrome_trace
from repro.obs.fleet import (
    DEFAULT_SLO,
    REPORT_FORMAT_VERSION,
    FleetAggregator,
    load_slo,
)
from repro.obs.spool import TelemetrySpool, spool_dir
from repro.obs.tracer import Tracer
from repro.platform import RunSpec, get_platform
from repro.service import JobQueue, JobSpec, Worker, serve

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _spec(app="Milc", nodes=64, seed=3):
    return RunSpec(platform=get_platform("ofp-default"), app=app,
                   n_nodes=nodes, n_runs=2, seed=seed)


def _jobspecs():
    return [JobSpec.for_specs([_spec(nodes=n)]) for n in (16, 32)]


def _drain_one_worker(root):
    queue = JobQueue(root)
    for jobspec in _jobspecs():
        queue.submit(jobspec)
    Worker(queue, poll_interval=0.0, drain=True, telemetry=True).run()
    return queue


@pytest.fixture
def drained(tmp_path):
    return _drain_one_worker(tmp_path / "svc")


def _golden_service(root):
    """A hand-built service dir that exercises every manifest corner:
    a DONE run job; a DONE job whose result tree nests, collides
    (``a.json`` vs ``a/x.txt``), holds an empty dir, a symlinked file,
    a symlinked dir and a dangling link; a FAILED job with a leftover
    result dir; a QUEUED and a RETRYING job; and one spool whose trace
    segment overflowed its ring."""
    queue = JobQueue(root, durable=False,
                     retry=RetryPolicy(max_retries=1, backoff_base=0.0))
    run = queue.submit(JobSpec.for_specs([_spec(nodes=16)]))
    tree = queue.submit(JobSpec.for_experiment("eq1"))
    failed = queue.submit(JobSpec.for_experiment("fig1"))
    retrying = queue.submit(JobSpec.for_experiment("table1"))
    queue.submit(JobSpec.for_experiment("fig3"))      # stays QUEUED

    def publish(job_id, files):
        for rel, data in files.items():
            path = queue.result_dir(job_id) / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        return queue.result_dir(job_id)

    for job_id, files in ((run, {"results.json": b'{"ok": true}\n'}),
                          (tree, {"a.json": b"{}\n", "a/x.txt": b"x\n",
                                  "sub/deep/z": b"zzz",
                                  "sub/y.csv": b"1,2\n"})):
        assert queue.claim_next("w1")[0] == job_id
        queue.mark_running(job_id, "w1", 0)
        base = publish(job_id, files)
        if job_id == tree:
            (base / "empty").mkdir()
            os.symlink("a.json", base / "link.json")
            os.symlink("sub", base / "linkdir")
            os.symlink("absent", base / "dangling")
        queue.complete(job_id, "w1", 0)
    for attempt in range(2):
        assert queue.claim_next("w1")[0] == failed
        queue.fail_attempt(failed, "w1", attempt, "boom")
    publish(failed, {"partial.txt": b"left over\n"})
    assert queue.claim_next("w1")[0] == retrying
    queue.fail_attempt(retrying, "w1", 0, "flaky")

    spool = TelemetrySpool(spool_dir(root) / "w1.jsonl", "w1",
                           durable=False)
    spool.event("claim", job=run)
    spool.segment(run, {"service": 4}, events=4, dropped=7)
    return queue


def chrome_via_tracer(jobs: list) -> str:
    """The Chrome timeline of a report's ``jobs`` the way
    ``FleetAggregator.chrome`` once built it: one tracer event per
    span, then :func:`chrome_trace_json` over the tracer."""
    tracer = Tracer()
    for job in jobs:
        for span in job["spans"]:
            tracer.event("service", span["name"],
                         ts=tracer.advance("service"), actor=job["job"],
                         lc=span["lc"])
    return chrome_trace_json(
        tracer, metadata={"reportFormatVersion": REPORT_FORMAT_VERSION,
                          "source": "repro service report"})


def _every_state(root):
    """A service dir holding a job in each of the six states."""
    queue = JobQueue(root, durable=False,
                     retry=RetryPolicy(max_retries=1, backoff_base=0.0))
    ids = [queue.submit(JobSpec.for_experiment("eq1", seed=seed))
           for seed in range(6)]
    assert queue.claim_next("w1")[0] == ids[0]
    queue.mark_running(ids[0], "w1", 0)
    queue.complete(ids[0], "w1", 0)
    for attempt in range(2):
        assert queue.claim_next("w1")[0] == ids[1]
        queue.fail_attempt(ids[1], "w1", attempt, "boom")
    assert queue.claim_next("w1")[0] == ids[2]
    queue.mark_running(ids[2], "w1", 0)
    assert queue.claim_next("w2")[0] == ids[3]
    assert queue.claim_next("w2")[0] == ids[4]
    queue.fail_attempt(ids[4], "w2", 0, "flaky")
    assert sorted(view.state.value for view in queue.table().values()) == [
        "claimed", "done", "failed", "queued", "retrying", "running"]
    return queue


@pytest.mark.parametrize("build", [_every_state, _golden_service,
                                   lambda root: JobQueue(root)],
                         ids=["every-state", "golden", "empty"])
def test_chrome_matches_the_tracer_render(tmp_path, build):
    agg = FleetAggregator(build(tmp_path / "svc"))
    assert agg.chrome() == chrome_via_tracer(agg.report()["jobs"])


# -- the deterministic core ---------------------------------------------


def test_report_shape_and_artifact_manifest(drained):
    report = FleetAggregator(drained).report()
    assert report["formatVersion"] == 1
    assert report["totals"] == {
        "artifact_bytes": report["totals"]["artifact_bytes"],
        "artifact_files": 2,
        "by_state": {"done": 2},
        "jobs": 2,
    }
    for job in report["jobs"]:
        assert [s["name"] for s in job["spans"]] == \
            ["submit", "claim", "run", "done"]
        assert [s["lc"] for s in job["spans"]] == [0, 1, 2, 3]
        [artifact] = job["artifacts"]
        assert artifact["path"] == "results.json"
        assert len(artifact["sha256"]) == 64
        path = drained.result_dir(job["job"]) / artifact["path"]
        assert artifact["bytes"] == len(path.read_bytes())


def test_report_is_byte_identical_across_worker_counts_and_reruns(
        tmp_path):
    """1 in-process worker vs a 2-process fleet vs a fresh re-run:
    same submissions, same report bytes, all three formats."""
    one = FleetAggregator(_drain_one_worker(tmp_path / "one"))

    fleet_root = tmp_path / "fleet"
    fleet_queue = JobQueue(fleet_root)
    for jobspec in _jobspecs():
        fleet_queue.submit(jobspec)
    summary = serve(fleet_root, workers=2, drain=True,
                    poll_interval=0.01, lease_ticks=200, telemetry=True)
    assert summary["exit_code"] == 0, summary
    fleet = FleetAggregator(fleet_queue)

    rerun = FleetAggregator(_drain_one_worker(tmp_path / "rerun"))

    assert one.report_json() == fleet.report_json() == rerun.report_json()
    assert one.chrome() == fleet.chrome() == rerun.chrome()
    assert fleet.chrome() == chrome_via_tracer(fleet.report()["jobs"])
    assert one.prometheus() == fleet.prometheus() == rerun.prometheus()
    # ... and aggregating the same directory twice is stable.
    assert one.report_json() == \
        FleetAggregator(JobQueue(tmp_path / "one")).report_json()


def test_chrome_export_is_a_valid_trace_on_the_service_layer(drained):
    obj = json.loads(FleetAggregator(drained).chrome())
    ensure_valid_chrome_trace(obj)
    events = [e for e in obj["traceEvents"] if e["ph"] != "M"]
    assert all(e["cat"] == "service" for e in events)
    assert [e["name"] for e in events] == \
        ["submit", "claim", "run", "done"] * 2
    assert obj["otherData"]["source"] == "repro service report"


def test_prometheus_export_carries_fleet_gauges(drained):
    text = FleetAggregator(drained).prometheus()
    assert 'repro_service_fleet_jobs{state="done"} 2' in text
    assert "repro_service_fleet_artifact_files 2" in text
    # Ring overflow is surfaced even when zero: the fleet asserts
    # visibility, not absence.
    assert "repro_obs_dropped_total 0" in text


@pytest.mark.parametrize("suffix,render", [
    ("json", FleetAggregator.report_json),
    ("prom", FleetAggregator.prometheus),
    ("chrome.json", FleetAggregator.chrome),
])
def test_fleet_renders_match_golden(tmp_path, suffix, render):
    """The three renders of the hand-built dir are byte-locked, so a
    faster manifest walk or timeline cannot move one byte of them."""
    agg = FleetAggregator(_golden_service(tmp_path / "svc"))
    golden = (GOLDEN / f"fleet_report.{suffix}").read_text()
    assert render(agg) == golden


def _count_fleet_digests(monkeypatch):
    """Patch ``hashlib.sha256`` to count the calls made from
    :mod:`repro.obs.fleet`; returns the live counter list."""
    calls = []
    real = hashlib.sha256

    def counting(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == "repro.obs.fleet":
            calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hashlib, "sha256", counting)
    return calls


def test_one_aggregator_digests_each_published_file_once(tmp_path,
                                                         monkeypatch):
    queue = _golden_service(tmp_path / "svc")
    calls = _count_fleet_digests(monkeypatch)
    agg = FleetAggregator(queue)
    report = json.loads(agg.report_json())
    agg.prometheus()
    agg.chrome()
    assert len(calls) == report["totals"]["artifact_files"] == 6


def test_chrome_alone_reads_no_result_file(tmp_path, monkeypatch):
    queue = _golden_service(tmp_path / "svc")
    calls = _count_fleet_digests(monkeypatch)
    FleetAggregator(queue).chrome()
    assert calls == []


def test_an_aggregator_reads_the_journal_once(tmp_path, monkeypatch):
    """The rollups and the job table come from one read of the
    journal's bytes, and a corrupt record still fails the load."""
    from repro.durable import AppendLog

    queue = _golden_service(tmp_path / "svc")
    reads = []
    read_from = AppendLog.read_from

    def counted(log, *args, **kwargs):
        reads.append(log.path)
        return read_from(log, *args, **kwargs)

    monkeypatch.setattr(AppendLog, "read_from", counted)
    agg = FleetAggregator(queue)
    assert reads.count(queue.journal.path) == 1
    assert agg.rollups()["submits"] == agg.report()["totals"]["jobs"] == 5
    queue.journal.append({"type": "frobnicate", "job": "j9"})
    with pytest.raises(JournalCorruptionError, match="frobnicate"):
        FleetAggregator(queue)


# -- rollups ------------------------------------------------------------


def test_rollups_count_retries_lease_breaks_and_goodput(tmp_path):
    queue = JobQueue(tmp_path / "svc")
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    queue.claim_next("w1")
    queue.break_lease(job_id, breaker="w2")      # claim 1 -> lease break
    queue.claim_next("w2")                       # claim 2
    queue.complete(job_id, "w2", 1)              # done
    r = FleetAggregator(queue).rollups()
    assert r["submits"] == 1 and r["claims"] == 2 and r["dones"] == 1
    assert r["retries"] == 1 and r["lease_breaks"] == 1
    assert r["goodput"] == 0.5 and r["retry_rate"] == 0.5
    assert r["max_queue_depth"] == 1
    assert r["telemetry"] == {"corrupt_lines": 0, "spools": 0,
                              "torn_tails": 0}


def test_rollups_report_per_worker_spool_stats(drained):
    r = FleetAggregator(drained).rollups()
    assert r["telemetry"]["spools"] == 1
    [worker] = r["workers"].values()
    assert worker["events"] >= 2 and worker["segments"] == 2
    assert worker["snapshots"] == 1
    assert not worker["torn_tail"] and worker["corrupt_lines"] == 0


# -- SLO evaluation -----------------------------------------------------


def test_check_passes_a_clean_run_and_flags_a_thrashing_one(tmp_path,
                                                            drained):
    clean = FleetAggregator(drained).check()
    assert clean["ok"] and clean["violations"] == []
    assert clean["rules"] == dict(sorted(DEFAULT_SLO.items()))

    queue = JobQueue(tmp_path / "thrash")
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    for attempt in range(3):
        queue.claim_next(f"w{attempt}")
        queue.break_lease(job_id, breaker="wx")
    queue.claim_next("w9")
    queue.complete(job_id, "w9", 3)
    result = FleetAggregator(queue).check()
    assert not result["ok"]
    assert any("retry_rate" in v for v in result["violations"])
    assert any("goodput" in v for v in result["violations"])
    # A loosened rule file waves the same run through.
    relaxed = FleetAggregator(queue).check(
        {"max_retry_rate": 1.0, "min_goodput": 0.1})
    assert relaxed["ok"], relaxed


def test_check_rejects_unknown_rules(drained):
    with pytest.raises(ConfigurationError, match="unknown SLO rule"):
        FleetAggregator(drained).check({"max_sadness": 1})


def test_load_slo_validates_the_rule_file(tmp_path):
    path = tmp_path / "slo.json"
    path.write_text('{"min_goodput": 0.9}')
    assert load_slo(path) == {"min_goodput": 0.9}
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_slo(tmp_path / "absent.json")
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        load_slo(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigurationError, match="JSON object"):
        load_slo(path)
    path.write_text('{"max_sadness": 1}')
    with pytest.raises(ConfigurationError, match="unknown rule"):
        load_slo(path)
    path.write_text('{"min_goodput": true}')
    with pytest.raises(ConfigurationError, match="must be a JSON number"):
        load_slo(path)
    # NaN compares false with everything, so it would turn the rule off.
    path.write_text('{"max_retry_rate": NaN}')
    with pytest.raises(ConfigurationError,
                       match="'max_retry_rate' must be a JSON number"):
        load_slo(path)


# -- the console and CLI ------------------------------------------------


def test_top_renders_queue_health_and_spools(drained):
    top = FleetAggregator(drained).top()
    assert "2 submitted, 2 done, 0 failed" in top
    assert "goodput=1.00" in top
    assert "telemetry: 1 spool(s), 0 torn tail(s)" in top
    for job_id in drained.table():
        assert job_id in top


def test_top_handles_an_empty_service(tmp_path):
    queue = JobQueue(tmp_path / "svc")
    top = FleetAggregator(queue).top()
    assert "(no jobs)" in top and "0 spool(s)" in top


def test_from_service_dir_requires_an_existing_directory(tmp_path):
    with pytest.raises(ServiceError, match="no service directory"):
        FleetAggregator.from_service_dir(tmp_path / "nope")


def test_cli_report_formats_check_and_top(tmp_path, capsys):
    from repro.cli import main

    svc = str(tmp_path / "svc")
    _drain_one_worker(svc)

    assert main(["service", "report", "--dir", svc]) == 0
    report = capsys.readouterr().out
    assert report == FleetAggregator(JobQueue(svc)).report_json()

    assert main(["service", "report", "--dir", svc, "--format",
                 "chrome"]) == 0
    ensure_valid_chrome_trace(json.loads(capsys.readouterr().out))

    assert main(["service", "report", "--dir", svc, "--format",
                 "prom"]) == 0
    assert "repro_service_fleet_jobs" in capsys.readouterr().out

    # --check on a clean run: report on stdout, verdict on stderr.
    assert main(["service", "report", "--dir", svc, "--check"]) == 0
    out, err = capsys.readouterr()
    assert out == report and "SLO check: ok" in err

    slo = tmp_path / "slo.json"
    slo.write_text('{"min_goodput": 2.0}')
    assert main(["service", "report", "--dir", svc, "--check",
                 str(slo)]) == 1
    out, err = capsys.readouterr()
    assert "SLO violation: goodput" in err

    assert main(["service", "top", "--dir", svc]) == 0
    assert "goodput=1.00" in capsys.readouterr().out
