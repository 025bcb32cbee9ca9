"""repro.service: journal, job specs, queue, workers, fleet, CLI.

The bar throughout: artifacts produced through the service are
byte-identical to the serial one-shot path, for any worker count,
including after crashes and lease breaks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.engine import ExecutionEngine
from repro.errors import (
    ClaimConflict,
    ConfigurationError,
    JobNotFoundError,
    JournalCorruptionError,
    ServiceError,
)
from repro.faults.tolerance import RetryPolicy
from repro.obs.export import canonical_json
from repro.obs.tracer import tracing
from repro.perf.cache import result_from_dict
from repro.platform import RunSpec, get_platform
from repro.service import (
    JobQueue,
    JobSpec,
    JobState,
    Journal,
    Worker,
    default_service_dir,
    job_id_for,
    load_jobspec,
    serve,
)


def _spec(app="Milc", nodes=64, seed=3):
    return RunSpec(platform=get_platform("ofp-default"), app=app,
                   n_nodes=nodes, n_runs=2, seed=seed)


@pytest.fixture
def queue(tmp_path):
    return JobQueue(tmp_path / "svc")


def _fast_worker(queue, **kwargs):
    kwargs.setdefault("poll_interval", 0.0)
    kwargs.setdefault("drain", True)
    return Worker(queue, **kwargs)


# -- journal ------------------------------------------------------------


def test_journal_append_and_records_round_trip(tmp_path):
    journal = Journal(tmp_path / "j.jsonl")
    journal.append({"type": "submit", "job": "j0"})
    journal.append({"type": "claim", "job": "j0", "worker": "w1"})
    assert journal.records() == [
        {"type": "submit", "job": "j0"},
        {"type": "claim", "job": "j0", "worker": "w1"},
    ]
    assert len(journal) == 2


def test_journal_lines_are_canonical_json(tmp_path):
    journal = Journal(tmp_path / "j.jsonl")
    journal.append({"zeta": 1, "alpha": 2})
    line = (tmp_path / "j.jsonl").read_text().rstrip("\n")
    assert line == canonical_json({"alpha": 2, "zeta": 1})


def test_journal_missing_file_reads_empty(tmp_path):
    assert Journal(tmp_path / "absent.jsonl").records() == []


def test_journal_tolerates_torn_final_line(tmp_path):
    """A crash mid-append loses at most the final record — earlier
    history stays readable."""
    path = tmp_path / "j.jsonl"
    journal = Journal(path)
    journal.append({"type": "submit", "job": "j0"})
    with path.open("a") as fh:
        fh.write('{"type": "claim", "jo')  # torn write, no newline
    assert journal.records() == [{"type": "submit", "job": "j0"}]


def test_journal_rejects_interior_corruption(tmp_path):
    path = tmp_path / "j.jsonl"
    for bad in (b"garbage", b'{"bad":"\xff"}'):
        path.write_bytes(b'{"type": "submit"}\n' + bad
                         + b'\n{"type": "done"}\n')
        with pytest.raises(JournalCorruptionError):
            Journal(path).records()


# -- job specs ----------------------------------------------------------


def test_jobspec_kinds_validate():
    with pytest.raises(ConfigurationError, match="kind"):
        JobSpec(kind="batch")
    with pytest.raises(ConfigurationError, match="experiment id"):
        JobSpec(kind="experiment")
    with pytest.raises(ConfigurationError, match="at least one"):
        JobSpec(kind="sweep")
    with pytest.raises(ConfigurationError, match="exactly one"):
        JobSpec(kind="run", specs=(_spec(), _spec(nodes=32)))
    with pytest.raises(ConfigurationError, match="RunSpec"):
        JobSpec(kind="run", specs=("not-a-spec",))


def test_jobspec_round_trip_and_digest_stability():
    jobspec = JobSpec.for_specs([_spec(), _spec(nodes=128)])
    assert jobspec.kind == "sweep"
    again = JobSpec.from_dict(json.loads(jobspec.canonical_json()))
    assert again == jobspec
    assert again.digest() == jobspec.digest()


def test_jobspec_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="priority"):
        JobSpec.from_dict({"kind": "experiment", "experiment": "eq1",
                           "priority": 9})


def test_job_ids_are_deterministic_and_sortable():
    jobspec = JobSpec.for_experiment("eq1")
    assert job_id_for(0, jobspec) == job_id_for(0, jobspec)
    assert job_id_for(0, jobspec) < job_id_for(1, jobspec)
    assert job_id_for(2, jobspec).startswith("j000002-")
    with pytest.raises(ConfigurationError):
        job_id_for(-1, jobspec)


def test_load_jobspec_accepts_every_oneshot_document():
    run = _spec()
    # A bare RunSpec (what `repro run` takes) becomes a run job.
    as_run = load_jobspec(run.to_json())
    assert as_run.kind == "run" and as_run.specs == (run,)
    # A list of RunSpecs becomes a sweep.
    sweep = load_jobspec(json.dumps([run.to_dict(), run.to_dict()]))
    assert sweep.kind == "sweep" and len(sweep.specs) == 2
    # An experiment reference.
    exp = load_jobspec(json.dumps({"experiment": "eq1", "seed": 4}))
    assert exp.kind == "experiment" and exp.seed == 4
    # A full JobSpec document round-trips.
    assert load_jobspec(as_run.canonical_json()) == as_run


def test_load_jobspec_rejects_garbage():
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        load_jobspec("{not json")
    with pytest.raises(ConfigurationError, match="unrecognized"):
        load_jobspec(json.dumps({"what": "ever"}))


# -- queue --------------------------------------------------------------


def test_default_service_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path / "svc"))
    assert default_service_dir() == tmp_path / "svc"
    monkeypatch.delenv("REPRO_SERVICE_DIR")
    assert default_service_dir().name == "repro-service"


def test_submit_freezes_artifact_and_queues(queue):
    jobspec = JobSpec.for_experiment("eq1")
    job_id = queue.submit(jobspec)
    assert job_id == job_id_for(0, jobspec)
    assert queue.jobspec(job_id) == jobspec
    view = queue.job(job_id)
    assert view.state is JobState.QUEUED
    assert view.kind == "experiment"
    assert queue.depth() == 1 and not queue.drained()
    # The artifact on disk is the canonical bytes the id digests.
    raw = (queue.jobs_dir / f"{job_id}.json").read_text()
    assert raw == jobspec.canonical_json() + "\n"


def test_submit_sequence_numbers_advance(queue):
    a = queue.submit(JobSpec.for_experiment("eq1"))
    b = queue.submit(JobSpec.for_experiment("eq1", seed=1))
    c = queue.submit(JobSpec.for_experiment("eq1"))  # same content as a
    assert [x[:7] for x in (a, b, c)] == ["j000000", "j000001", "j000002"]
    assert a.split("-")[1] == c.split("-")[1]  # same digest half


def test_unknown_job_raises(queue):
    with pytest.raises(JobNotFoundError):
        queue.job("j000099-0000000000")
    with pytest.raises(JobNotFoundError):
        queue.jobspec("j000099-0000000000")


def test_claims_are_mutually_exclusive(queue):
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    first = queue.claim_next("w1")
    assert first is not None and first[0] == job_id and first[2] == 0
    assert queue.claim_next("w2") is None  # the O_EXCL create lost
    assert queue.job(job_id).state is JobState.CLAIMED
    assert queue.job(job_id).worker == "w1"


def test_claim_order_is_submission_order(queue):
    first = queue.submit(JobSpec.for_experiment("eq1", seed=9))
    second = queue.submit(JobSpec.for_experiment("eq1", seed=1))
    got_first = queue.claim_next("w1")
    got_second = queue.claim_next("w1")
    assert got_first is not None and got_first[0] == first
    assert got_second is not None and got_second[0] == second


def test_complete_releases_and_terminalizes(queue):
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    queue.claim_next("w1")
    queue.mark_running(job_id, "w1", 0)
    assert queue.job(job_id).state is JobState.RUNNING
    queue.complete(job_id, "w1", 0)
    assert queue.job(job_id).state is JobState.DONE
    assert not queue.active_claims()
    assert queue.drained()


def test_failed_attempts_retry_until_budget_exhausted(tmp_path):
    queue = JobQueue(tmp_path / "svc",
                     retry=RetryPolicy(max_retries=2, backoff_base=0.0))
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    for attempt in range(2):
        claimed = queue.claim_next("w1")
        assert claimed is not None and claimed[2] == attempt
        queue.fail_attempt(job_id, "w1", attempt, error="boom")
        assert queue.job(job_id).state is JobState.RETRYING
        assert queue.job(job_id).error == "boom"
    claimed = queue.claim_next("w1")
    assert claimed is not None and claimed[2] == 2
    queue.fail_attempt(job_id, "w1", 2, error="boom")
    # Third failure spends the budget (max_retries=2 → 3 attempts).
    assert queue.job(job_id).state is JobState.FAILED
    assert queue.claim_next("w1") is None
    assert queue.drained()


def test_heartbeat_bumps_the_counter(queue):
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    queue.claim_next("w1")
    assert queue.heartbeat(job_id, "w1") == 1
    assert queue.heartbeat(job_id, "w1") == 2
    assert queue.read_claim(job_id)["heartbeat"] == 2


def test_broken_lease_requeues_and_conflicts_the_old_owner(queue):
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    queue.claim_next("w1")
    assert queue.break_lease(job_id, breaker="w2")
    # Exactly one breaker wins; a second break finds no claim file.
    assert not queue.break_lease(job_id, breaker="w3")
    assert queue.job(job_id).state is JobState.RETRYING
    # The presumed-dead owner's next beat must conflict, not resurrect.
    with pytest.raises(ClaimConflict):
        queue.heartbeat(job_id, "w1")
    # The job is claimable again, at the next attempt number.
    reclaimed = queue.claim_next("w2")
    assert reclaimed is not None and reclaimed[2] == 1


def test_heartbeat_conflicts_when_reowned(queue):
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    queue.claim_next("w1")
    queue.break_lease(job_id, breaker="w2")
    queue.claim_next("w2")
    with pytest.raises(ClaimConflict):
        queue.heartbeat(job_id, "w1")
    assert queue.heartbeat(job_id, "w2") == 1


def test_result_files_requires_done(queue):
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    with pytest.raises(ServiceError, match="not done"):
        queue.result_files(job_id)


def test_queue_emits_service_trace_events(queue):
    with tracing() as tracer:
        job_id = queue.submit(JobSpec.for_experiment("eq1"))
        queue.claim_next("w1")
        queue.complete(job_id, "w1", 0)
    events = [e for e in tracer.events if e.layer == "service"]
    assert [e.name for e in events] == ["submit", "claim", "done"]
    assert all(e.args["job"] == job_id for e in events)


# -- workers ------------------------------------------------------------


def test_worker_drains_experiment_job_byte_identical_to_serial(queue,
                                                               tmp_path):
    """The determinism bar: `repro submit` + a worker produces exactly
    the bytes of the serial `repro export` path."""
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    summary = _fast_worker(queue).run()
    assert summary["executed"] == 1 and summary["failed"] == 0
    assert queue.job(job_id).state is JobState.DONE

    golden = tmp_path / "golden"
    ExecutionEngine().export_experiments(golden, ids=["eq1"])
    produced = queue.result_files(job_id)
    assert [p.name for p in produced] == \
        sorted(p.name for p in golden.iterdir())
    for path in produced:
        assert path.read_bytes() == (golden / path.name).read_bytes()


def test_worker_run_job_matches_engine_results(queue):
    spec = _spec()
    job_id = queue.submit(JobSpec.for_specs([spec]))
    _fast_worker(queue).run()
    [results_file] = queue.result_files(job_id)
    assert results_file.name == "results.json"
    payload = json.loads(results_file.read_text())
    assert payload["jobspec"]["kind"] == "run"
    [serial] = ExecutionEngine().run_specs([spec])
    assert result_from_dict(payload["results"][0]) == serial


def test_non_durable_drain_issues_no_fsync(tmp_path, monkeypatch):
    """A ``durable=False`` queue fsyncs nothing: the worker's run cache
    follows the queue's durability, as its telemetry spool does."""
    queue = JobQueue(tmp_path / "svc", durable=False)
    queue.submit(JobSpec.for_specs([_spec(), _spec(nodes=16)]))
    fsyncs = []
    monkeypatch.setattr(os, "fsync", fsyncs.append)
    summary = _fast_worker(queue, telemetry=True).run()
    assert summary["executed"] == 1 and summary["failed"] == 0
    assert len(list(queue.cache_dir.rglob("*.json"))) == 2
    assert fsyncs == []


def test_worker_sweep_preserves_spec_order(queue):
    specs = [_spec(nodes=n) for n in (256, 16, 64)]
    job_id = queue.submit(JobSpec.for_specs(specs))
    _fast_worker(queue).run()
    [results_file] = queue.result_files(job_id)
    payload = json.loads(results_file.read_text())
    serial = ExecutionEngine().run_specs(specs)
    assert [result_from_dict(r) for r in payload["results"]] == serial


def test_workers_share_the_queue_cache(queue):
    # Run-kind jobs execute cells through the executor, which memoizes
    # into the queue's shared disk tier; a second worker (fresh
    # process, in effect) replays instead of recomputing.
    queue.submit(JobSpec.for_specs([_spec()]))
    _fast_worker(queue).run()
    assert any(queue.cache_dir.glob("*.json"))


def test_worker_failure_exhausts_retries_to_failed(tmp_path):
    queue = JobQueue(tmp_path / "svc",
                     retry=RetryPolicy(max_retries=1, backoff_base=0.0))
    job_id = queue.submit(JobSpec.for_experiment("fig99"))
    summary = _fast_worker(queue).run()
    assert summary["failed"] == 2  # initial attempt + one retry
    view = queue.job(job_id)
    assert view.state is JobState.FAILED
    assert "ConfigurationError" in view.error
    assert "fig99" in view.error
    assert queue.drained()
    assert not list(queue.results_dir.iterdir())  # nothing published


def test_failed_jobs_do_not_block_later_ones(tmp_path):
    queue = JobQueue(tmp_path / "svc",
                     retry=RetryPolicy(max_retries=0, backoff_base=0.0))
    bad = queue.submit(JobSpec.for_experiment("fig99"))
    good = queue.submit(JobSpec.for_experiment("eq1"))
    summary = _fast_worker(queue).run()
    assert summary["failed"] == 1 and summary["executed"] == 1
    assert queue.job(bad).state is JobState.FAILED
    assert queue.job(good).state is JobState.DONE


def test_dead_workers_lease_is_broken_and_job_completes(queue, tmp_path):
    """Crash tolerance end to end: a claimant dies (here: simply never
    heartbeats), a live worker reaps the lease and re-runs the job —
    and the artifacts still match the serial golden bytes."""
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    dead = queue.claim_next("w-dead")
    assert dead is not None
    queue.mark_running(job_id, "w-dead", 0)

    survivor = _fast_worker(queue, worker_id="w-live", lease_ticks=3)
    summary = survivor.run()
    assert summary["leases_broken"] == 1
    assert summary["executed"] == 1
    view = queue.job(job_id)
    assert view.state is JobState.DONE
    assert view.worker == "w-live"
    assert "lease expired" not in view.error  # cleared on done

    golden = tmp_path / "golden"
    ExecutionEngine().export_experiments(golden, ids=["eq1"])
    for path in queue.result_files(job_id):
        assert path.read_bytes() == (golden / path.name).read_bytes()


def test_reaper_spares_advancing_heartbeats(queue):
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    queue.claim_next("w-slow")
    observer = Worker(queue, worker_id="w-obs", poll_interval=0.0,
                      lease_ticks=3)
    for _ in range(10):
        queue.heartbeat(job_id, "w-slow")  # owner is alive, just slow
        assert not observer._reap()
    assert queue.job(job_id).state is JobState.CLAIMED


def test_stale_publish_loses_to_the_reclaimant(queue):
    """The discard path: a worker that lost its lease must not
    publish over the re-claimant's results."""
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    queue.claim_next("w-old")
    queue.break_lease(job_id, breaker="w-new")
    _fast_worker(queue, worker_id="w-new").run()
    done_files = {p.name for p in queue.result_files(job_id)}

    loser = Worker(queue, worker_id="w-old", poll_interval=0.0)
    stale_dir = queue.results_dir / f"{job_id}.tmp-w-old-0"
    stale_dir.mkdir()
    (stale_dir / "stale.txt").write_text("from the dead worker\n")
    loser._publish(job_id, stale_dir)
    assert {p.name for p in queue.result_files(job_id)} == done_files
    assert not stale_dir.exists()  # loser discarded its copy


# -- fleet + CLI --------------------------------------------------------


def test_serve_rejects_zero_workers(tmp_path):
    with pytest.raises(ConfigurationError, match="workers"):
        serve(tmp_path / "svc", workers=0)


def test_serve_single_worker_drains(tmp_path):
    queue = JobQueue(tmp_path / "svc")
    queue.submit(JobSpec.for_experiment("eq1"))
    summary = serve(tmp_path / "svc", drain=True, poll_interval=0.0)
    assert summary["exit_code"] == 0
    assert summary["executed"] == 1
    assert queue.drained()


def test_four_worker_fleet_matches_serial_bytes(tmp_path):
    """The acceptance bar: a sweep through 4 OS-process workers is
    byte-identical to the 1-worker (and serial) path."""
    from repro.perf.cache import result_to_dict

    specs = [_spec(nodes=n) for n in (16, 32, 64, 128)]
    serial = ExecutionEngine().run_specs(specs)
    golden = [
        canonical_json({"jobspec": JobSpec.for_specs([spec]).to_dict(),
                        "results": [result_to_dict(result)]}) + "\n"
        for spec, result in zip(specs, serial)
    ]

    queue = JobQueue(tmp_path / "svc")
    job_ids = [queue.submit(JobSpec.for_specs([spec])) for spec in specs]
    summary = serve(tmp_path / "svc", workers=4, drain=True,
                    poll_interval=0.01, lease_ticks=200)
    assert summary["exit_code"] == 0, summary
    for job_id, expected in zip(job_ids, golden):
        assert queue.job(job_id).state is JobState.DONE
        [results_file] = queue.result_files(job_id)
        assert results_file.read_text() == expected


def test_cli_submit_status_serve_fetch_round_trip(tmp_path, capsys):
    from repro.cli import main

    svc = str(tmp_path / "svc")
    spec_file = tmp_path / "run.json"
    spec_file.write_text(_spec().to_json(indent=2))

    assert main(["submit", str(spec_file), "--dir", svc]) == 0
    job_id = capsys.readouterr().out.strip()
    assert job_id.startswith("j000000-")

    assert main(["status", "--dir", svc]) == 0
    table = capsys.readouterr().out
    assert job_id in table and "queued" in table

    assert main(["serve", "--dir", svc, "--drain", "--poll", "0"]) == 0
    assert "executed" in capsys.readouterr().out

    assert main(["status", job_id, "--dir", svc]) == 0
    detail = capsys.readouterr().out
    assert "done" in detail and "1 file(s)" in detail

    out_dir = tmp_path / "fetched"
    assert main(["fetch", job_id, "--dir", svc,
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "results.json").exists()
    # Fetched bytes == published bytes.
    queue = JobQueue(svc)
    [published] = queue.result_files(job_id)
    assert (out_dir / "results.json").read_bytes() == \
        published.read_bytes()


def test_cli_submit_experiment_flag(tmp_path, capsys):
    from repro.cli import main

    svc = str(tmp_path / "svc")
    assert main(["submit", "--experiment", "eq1", "--dir", svc]) == 0
    job_id = capsys.readouterr().out.strip()
    assert JobQueue(svc).jobspec(job_id).experiment == "eq1"


def test_cli_submit_requires_exactly_one_source(tmp_path, capsys):
    from repro.cli import main

    svc = str(tmp_path / "svc")
    assert main(["submit", "--dir", svc]) == 2
    assert "repro: error:" in capsys.readouterr().err
    spec_file = tmp_path / "run.json"
    spec_file.write_text(_spec().to_json())
    assert main(["submit", str(spec_file), "--experiment", "eq1",
                 "--dir", svc]) == 2


def test_cli_non_utf8_journal_byte_is_an_error_not_a_traceback(
        tmp_path, capsys):
    from repro.cli import main

    svc = str(tmp_path / "svc")
    assert main(["submit", "--experiment", "eq1", "--dir", svc]) == 0
    with (JobQueue(svc).root / "journal.jsonl").open("ab") as fh:
        fh.write(b'{"bad":"\xff"}\n')
    capsys.readouterr()
    assert main(["service", "status", "--dir", svc]) == 2
    err = capsys.readouterr().err
    assert "repro: error:" in err and "Traceback" not in err
    assert main(["service", "verify", "--dir", svc]) == 1
    assert "journal-corrupt" in capsys.readouterr().out


def test_cli_status_reports_failed_jobs_nonzero(tmp_path, capsys):
    from repro.cli import main

    svc = str(tmp_path / "svc")
    queue = JobQueue(svc, retry=RetryPolicy(max_retries=0,
                                            backoff_base=0.0))
    job_id = queue.submit(JobSpec.for_experiment("fig99"))
    Worker(queue, poll_interval=0.0, drain=True).run()
    assert main(["status", job_id, "--dir", svc]) == 1
    out = capsys.readouterr().out
    assert "failed" in out and "fig99" in out


def test_cli_status_json_round_trips_and_is_byte_stable(tmp_path,
                                                        capsys):
    """Satellite: --json output parses, carries the table, and two
    invocations over unchanged state produce identical bytes."""
    from repro.cli import main

    svc = str(tmp_path / "svc")
    queue = JobQueue(svc)
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    _fast_worker(queue).run()

    assert main(["status", "--dir", svc, "--json"]) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert [j["job_id"] for j in payload["jobs"]] == [job_id]
    assert payload["jobs"][0]["state"] == "done"
    assert main(["status", "--dir", svc, "--json"]) == 0
    assert capsys.readouterr().out == first  # byte-stable

    assert main(["status", job_id, "--dir", svc, "--json"]) == 0
    detail = json.loads(capsys.readouterr().out)
    assert detail["job"]["state"] == "done"
    assert detail["claim"] is None
    assert detail["artifacts"] == ["eq1.json", "eq1.txt"]

    # `service status` is the same command under the service verb.
    assert main(["service", "status", "--dir", svc, "--json"]) == 0
    assert capsys.readouterr().out == first


def test_cli_status_json_empty_service_and_failed_job(tmp_path, capsys):
    from repro.cli import main

    svc = str(tmp_path / "svc")
    assert main(["status", "--dir", svc, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"jobs": []}

    queue = JobQueue(svc, retry=RetryPolicy(max_retries=0,
                                            backoff_base=0.0))
    job_id = queue.submit(JobSpec.for_experiment("fig99"))
    _fast_worker(queue).run()
    assert main(["status", job_id, "--dir", svc, "--json"]) == 1
    detail = json.loads(capsys.readouterr().out)
    assert detail["job"]["state"] == "failed"
    assert detail["artifacts"] == []


def test_module_entrypoint_serves(tmp_path):
    """`python -m repro serve` is what fleet workers exec — keep it
    working."""
    queue = JobQueue(tmp_path / "svc")
    queue.submit(JobSpec.for_experiment("eq1"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--dir",
         str(tmp_path / "svc"), "--drain", "--poll", "0.01"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert queue.drained()
