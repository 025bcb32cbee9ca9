"""repro.obs.spool + worker telemetry + fsck spool repair.

The flight-recorder contract: every acked spool record survives
kill -9, a crash loses at most the final record, and what a crash
leaves behind (torn tails, unparseable lines) is either self-healed
by the single writer or quarantined by fsck — never silently folded
into fleet views.
"""

from __future__ import annotations

import json

import pytest

from repro.chaos import ChaosInjector, ChaosSpec, SitePolicy, chaos_active
from repro.errors import ConfigurationError, CrashInjected
from repro.obs.spool import TelemetrySpool, read_spool, spool_dir
from repro.service import JobQueue, JobSpec, JobState, Worker
from repro.service.fsck import verify_service


@pytest.fixture
def queue(tmp_path):
    return JobQueue(tmp_path / "svc", durable=False)


def _worker(queue, **kwargs):
    kwargs.setdefault("poll_interval", 0.0)
    kwargs.setdefault("drain", True)
    kwargs.setdefault("telemetry", True)
    return Worker(queue, **kwargs)


# -- the spool ----------------------------------------------------------


def test_spool_round_trips_records_in_lc_order(tmp_path):
    spool = TelemetrySpool(tmp_path / "w0.jsonl", source="w0",
                           durable=False)
    spool.event("worker.start", worker="w0")
    spool.segment(job="j0", layers={"kernel": 2}, events=2, dropped=0)
    spool.metrics({"depth": 3, "executed": 1})
    records, problems = read_spool(tmp_path / "w0.jsonl")
    assert problems == {"torn_tail": False, "corrupt_lines": 0}
    assert [r["kind"] for r in records] == ["event", "segment", "metrics"]
    assert [r["lc"] for r in records] == [0, 1, 2]
    assert all(r["source"] == "w0" for r in records)
    assert records[1]["layers"] == {"kernel": 2}
    assert records[2]["depth"] == 3


def test_spool_lines_are_canonical_json(tmp_path):
    from repro.obs.export import canonical_json

    spool = TelemetrySpool(tmp_path / "w0.jsonl", source="w0",
                           durable=False)
    record = spool.event("submit", job="j0")
    line = (tmp_path / "w0.jsonl").read_text().rstrip("\n")
    assert line == canonical_json(record)


def test_spool_requires_a_source_and_known_kind(tmp_path):
    with pytest.raises(ConfigurationError, match="source"):
        TelemetrySpool(tmp_path / "x.jsonl", source="")
    spool = TelemetrySpool(tmp_path / "x.jsonl", source="w0",
                           durable=False)
    with pytest.raises(ConfigurationError, match="kind"):
        spool.emit("gossip", "hmm")


def test_spool_read_tolerates_torn_tail_and_counts_interior_damage(
        tmp_path):
    path = tmp_path / "w0.jsonl"
    spool = TelemetrySpool(path, source="w0", durable=False)
    spool.event("a")
    spool.event("b")
    raw = path.read_bytes()
    for bad, tail in ((raw[:12], b'{"kind": "ev'),
                      (b'{"bad":"\xff"}', b'{"kind": "\xff')):
        path.write_bytes(bad + b"\n" + raw + tail)
        records, problems = read_spool(path)
        assert [r["name"] for r in records] == ["a", "b"]
        assert problems == {"torn_tail": True, "corrupt_lines": 1}
    assert read_spool(tmp_path / "absent.jsonl") == \
        ([], {"torn_tail": False, "corrupt_lines": 0})


def test_spool_record_torn_before_its_newline_reads_as_torn(tmp_path):
    """A write cut exactly before its newline leaves a complete but
    unacknowledged record: the reader must call it torn, exactly as
    fsck does, and not fold it."""
    path = tmp_path / "w0.jsonl"
    spool = TelemetrySpool(path, source="w0", durable=False)
    spool.event("a")
    spool.event("b")
    path.write_bytes(path.read_bytes()[:-1])
    records, problems = read_spool(path)
    assert [r["name"] for r in records] == ["a"]
    assert problems == {"torn_tail": True, "corrupt_lines": 0}


def test_spool_single_writer_self_heals_its_torn_tail(tmp_path):
    path = tmp_path / "w0.jsonl"
    spool = TelemetrySpool(path, source="w0", durable=False)
    spool.event("a")
    with path.open("a") as fh:
        fh.write('{"kind": "event", "lc')  # our own prior crash
    spool.event("b")
    records, problems = read_spool(path)
    assert [r["name"] for r in records] == ["a", "b"]
    assert problems == {"torn_tail": False, "corrupt_lines": 0}


# -- worker lifecycle spooling ------------------------------------------


def test_worker_spools_lifecycle_segment_and_snapshot(queue):
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    _worker(queue, worker_id="w0").run()
    records, problems = read_spool(spool_dir(queue.root) / "w0.jsonl")
    assert problems == {"torn_tail": False, "corrupt_lines": 0}
    names = [r["name"] for r in records if r["kind"] == "event"]
    assert names[0] == "worker.start" and names[-1] == "worker.exit"
    # The queue's lifecycle transitions spool through the worker.
    assert {"claim", "run", "done"} <= set(names)
    assert any(r["kind"] == "event" and r.get("job") == job_id
               for r in records)
    [segment] = [r for r in records if r["kind"] == "segment"]
    assert segment["job"] == job_id and segment["dropped"] == 0
    [snapshot] = [r for r in records if r["kind"] == "metrics"]
    assert snapshot["executed"] == 1 and snapshot["depth"] == 0


def test_telemetry_off_leaves_no_spool_directory(queue):
    queue.submit(JobSpec.for_experiment("eq1"))
    _worker(queue, telemetry=False).run()
    assert not spool_dir(queue.root).exists()


def test_killed_worker_leaves_a_readable_spool(queue):
    """kill -9 (injected) mid-run: the spool has no exit record, but
    everything acked before the crash reads back clean."""
    queue.submit(JobSpec.for_experiment("eq1"))
    spec = ChaosSpec(sites=(SitePolicy(site="engine.run"),))
    with chaos_active(ChaosInjector(spec)):
        with pytest.raises(CrashInjected):
            _worker(queue, worker_id="w0").run()
    records, problems = read_spool(spool_dir(queue.root) / "w0.jsonl")
    assert problems == {"torn_tail": False, "corrupt_lines": 0}
    names = [r["name"] for r in records]
    assert "worker.start" in names and "claim" in names
    assert "worker.exit" not in names  # flight recorders don't lie


def test_chaos_kill_at_the_spool_append_is_tolerated(queue):
    """The telemetry.append site: the crash lands *inside* the spool
    write; a restarted worker self-heals and the queue still drains."""
    queue.submit(JobSpec.for_experiment("eq1"))
    spec = ChaosSpec(sites=(
        SitePolicy(site="telemetry.append", action="torn-write"),))
    with chaos_active(ChaosInjector(spec)):
        with pytest.raises(CrashInjected):
            _worker(queue, worker_id="w0").run()
        # Same spool file, restarted worker: heals the fragment.
        summary = _worker(queue, worker_id="w0", max_polls=5).run()
    assert summary["executed"] == 1
    records, problems = read_spool(spool_dir(queue.root) / "w0.jsonl")
    assert problems == {"torn_tail": False, "corrupt_lines": 0}
    assert queue.drained()


# -- fsck ---------------------------------------------------------------


def test_fsck_heals_a_torn_spool_tail(queue):
    queue.submit(JobSpec.for_experiment("eq1"))
    _worker(queue, worker_id="w0").run()
    path = spool_dir(queue.root) / "w0.jsonl"
    with path.open("a") as fh:
        fh.write('{"kind": "event", "lc')
    report = verify_service(queue.root, repair=False, durable=False)
    assert [v["check"] for v in report["violations"]] == \
        ["telemetry-torn-tail"]
    report = verify_service(queue.root, repair=True, durable=False)
    assert report["ok"] and report["repaired"] == 1
    assert report["checked"]["telemetry_spools"] == 1
    _, problems = read_spool(path)
    assert problems == {"torn_tail": False, "corrupt_lines": 0}
    # The fragment is quarantined evidence, not deleted.
    quarantined = queue.root / "quarantine" / "telemetry" / \
        "w0.jsonl.tail"
    assert quarantined.read_bytes() == b'{"kind": "event", "lc'
    assert verify_service(queue.root, durable=False)["clean"]


def test_fsck_quarantines_an_interior_corrupt_spool(queue):
    for i, bad in enumerate((b"not json at all", b'{"bad":"\xff"}')):
        svc = JobQueue(queue.root.with_name(f"svc{i}"), durable=False)
        svc.submit(JobSpec.for_experiment("eq1"))
        _worker(svc, worker_id="w0").run()
        path = spool_dir(svc.root) / "w0.jsonl"
        lines = path.read_bytes().splitlines()
        lines[1] = bad
        path.write_bytes(b"\n".join(lines) + b"\n")
        report = verify_service(svc.root, repair=True, durable=False)
        assert [v["check"] for v in report["violations"]] == \
            ["telemetry-corrupt"]
        assert report["ok"]
        assert not path.exists()
        assert (svc.root / "quarantine" / "telemetry" /
                "w0.jsonl").exists()
        assert verify_service(svc.root, durable=False)["clean"]


def test_serve_telemetry_flag_wires_the_spool(tmp_path, capsys):
    from repro.cli import main

    svc = str(tmp_path / "svc")
    queue = JobQueue(svc)
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    assert main(["serve", "--dir", svc, "--drain", "--poll", "0",
                 "--telemetry"]) == 0
    capsys.readouterr()
    spools = list(spool_dir(queue.root).glob("*.jsonl"))
    assert len(spools) == 1
    assert queue.job(job_id).state is JobState.DONE
