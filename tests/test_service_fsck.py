"""Service fsck: every invariant, every safe repair, and the
property-style torn-journal sweep."""

from __future__ import annotations

import json
import os
import pathlib
import shutil

import pytest

from repro.errors import JournalCorruptionError, ServiceError
from repro.obs.export import canonical_json
from repro.platform import RunSpec, get_platform
from repro.service import (
    JobQueue,
    JobSpec,
    JobState,
    Journal,
    Worker,
    verify_service,
)
from repro.service import fsck
from repro.service.fsck import report_json


def _spec(app="Milc", nodes=64, seed=3):
    return RunSpec(platform=get_platform("ofp-default"), app=app,
                   n_nodes=nodes, n_runs=2, seed=seed)


def _queue(tmp_path, **kwargs):
    kwargs.setdefault("durable", False)
    return JobQueue(tmp_path / "svc", **kwargs)


def _drain(queue):
    return Worker(queue, poll_interval=0.0, drain=True, lease_ticks=3,
                  max_polls=50).run()


def _checks(report):
    return sorted(v["check"] for v in report["violations"])


# -- clean directories --------------------------------------------------


def test_fresh_directory_verifies_clean(tmp_path):
    report = verify_service(tmp_path / "never-used")
    assert report["clean"] and report["ok"]
    assert report["violations"] == []


def test_healthy_lifecycle_verifies_clean(tmp_path):
    queue = _queue(tmp_path)
    queue.submit(JobSpec.for_experiment("eq1"))
    queue.submit(JobSpec.for_specs([_spec()]))
    _drain(queue)
    report = verify_service(queue.root)
    assert report["clean"]
    assert report["checked"]["jobs"] == 2
    assert report["checked"]["results"] == 2


def test_verify_without_repair_never_mutates(tmp_path):
    queue = _queue(tmp_path)
    queue.submit(JobSpec.for_experiment("eq1"))
    # Fabricate debris: an orphan claim file.
    orphan = queue.claims_dir / "j000099-feedfeedfe.claim"
    orphan.write_text("{}")
    before = sorted(str(p) for p in queue.root.rglob("*"))
    report = verify_service(queue.root)
    assert not report["clean"] and not report["ok"]
    assert sorted(str(p) for p in queue.root.rglob("*")) == before


def test_report_is_canonical_json(tmp_path):
    report = verify_service(tmp_path / "svc-none")
    text = report_json(report)
    assert text == canonical_json(json.loads(text))


# -- per-invariant repairs ----------------------------------------------


def test_orphan_artifact_quarantined(tmp_path):
    queue = _queue(tmp_path)
    stray = queue.jobs_dir / "j000042-abcdefabcd.json"
    stray.write_text(JobSpec.for_experiment("eq1").canonical_json())
    report = verify_service(queue.root, repair=True)
    assert _checks(report) == ["orphan-artifact"]
    assert not stray.exists()
    assert (queue.root / "quarantine" / "jobs" / stray.name).exists()
    assert verify_service(queue.root)["clean"]


def test_artifact_missing_is_unrepairable(tmp_path):
    queue = _queue(tmp_path)
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    os.unlink(queue.jobs_dir / f"{job_id}.json")
    report = verify_service(queue.root, repair=True)
    assert _checks(report) == ["artifact-missing"]
    assert report["unrepaired"] == 1 and not report["ok"]


def test_verify_decodes_each_distinct_submission_once(tmp_path,
                                                      monkeypatch):
    queue = _queue(tmp_path)
    for experiment in ("eq1", "eq1", "eq1", "fig1", "fig1"):
        queue.submit(JobSpec.for_experiment(experiment))
    decoded = []
    real = JobSpec.from_dict.__func__

    def counting(cls, payload):
        decoded.append(payload["experiment"])
        return real(cls, payload)

    monkeypatch.setattr(JobSpec, "from_dict", classmethod(counting))
    report = verify_service(queue.root)
    assert report["clean"] and report["checked"]["jobs"] == 5
    assert sorted(decoded) == ["eq1", "fig1"]


def test_a_shared_corrupt_artifact_is_a_finding_per_job(tmp_path):
    """A failed decode is never memoised: every job carrying the bad
    text is reported, not just the first."""
    queue = _queue(tmp_path)
    jobs = [queue.submit(JobSpec.for_experiment("eq1")) for _ in range(2)]
    for job_id in jobs:
        (queue.jobs_dir / f"{job_id}.json").write_text(
            '{"kind": "experiment", "experiment": ""}')
    report = verify_service(queue.root)
    assert _checks(report) == ["artifact-corrupt"] * 2
    assert sorted(v["job"] for v in report["violations"]) == jobs


def test_stale_claim_on_terminal_job_quarantined(tmp_path):
    queue = _queue(tmp_path)
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    _drain(queue)
    claim = queue.claims_dir / f"{job_id}.claim"
    claim.write_text(canonical_json(
        {"attempt": 0, "heartbeat": 3, "worker": "w-zombie"}))
    report = verify_service(queue.root, repair=True)
    assert _checks(report) == ["stale-claim"]
    assert not claim.exists()
    assert verify_service(queue.root)["clean"]


def test_torn_claim_quarantined_and_job_requeued(tmp_path):
    queue = _queue(tmp_path)
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    queue.claim_next("w0")
    (queue.claims_dir / f"{job_id}.claim").write_text('{"attempt": 0, ')
    report = verify_service(queue.root, repair=True)
    assert _checks(report) == ["torn-claim"]
    assert queue.job(job_id).state is JobState.RETRYING
    assert _drain(queue)["executed"] == 1


def test_lease_epoch_mismatch_quarantined_and_requeued(tmp_path):
    queue = _queue(tmp_path)
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    queue.claim_next("w0")
    (queue.claims_dir / f"{job_id}.claim").write_text(canonical_json(
        {"attempt": 7, "heartbeat": 0, "worker": "w-imposter"}))
    report = verify_service(queue.root, repair=True)
    assert _checks(report) == ["lease-epoch-mismatch"]
    assert queue.job(job_id).state is JobState.RETRYING


def test_matching_live_claim_is_not_a_violation(tmp_path):
    queue = _queue(tmp_path)
    queue.submit(JobSpec.for_experiment("eq1"))
    queue.claim_next("w0")
    assert verify_service(queue.root)["clean"]


def test_missing_result_for_done_job_is_unrepairable(tmp_path):
    import shutil

    queue = _queue(tmp_path)
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    _drain(queue)
    shutil.rmtree(queue.result_dir(job_id))
    report = verify_service(queue.root, repair=True)
    assert _checks(report) == ["missing-result"]
    assert not report["ok"]


def test_orphan_result_quarantined(tmp_path):
    queue = _queue(tmp_path)
    stray = queue.results_dir / "j000077-0123456789"
    stray.mkdir()
    (stray / "results.json").write_text("{}")
    report = verify_service(queue.root, repair=True)
    assert _checks(report) == ["orphan-result"]
    assert not stray.exists()
    assert (queue.root / "quarantine" / "results" / stray.name
            / "results.json").exists()


def test_stray_workdir_quarantined(tmp_path):
    queue = _queue(tmp_path)
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    _drain(queue)
    debris = queue.results_dir / f"{job_id}.tmp-w9-0"
    debris.mkdir()
    (debris / "partial.json").write_text("{")
    report = verify_service(queue.root, repair=True)
    assert _checks(report) == ["stray-workdir"]
    assert not debris.exists()
    assert verify_service(queue.root)["clean"]


def test_requeue_refuses_terminal_jobs(tmp_path):
    queue = _queue(tmp_path)
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    _drain(queue)
    with pytest.raises(ServiceError, match="nothing to re-queue"):
        queue.requeue(job_id, "test")


def test_cache_incoherent_entry_quarantined(tmp_path):
    queue = _queue(tmp_path)
    job_id = queue.submit(JobSpec.for_specs([_spec()]))
    _drain(queue)
    entries = sorted(queue.cache_dir.glob("*.json"))
    assert entries  # the sweep populated the shared disk tier
    # Re-address one entry: bytes that answer a different question.
    victim = entries[0]
    moved = victim.with_name("0" * len(victim.stem) + ".json")
    os.replace(victim, moved)
    report = verify_service(queue.root, repair=True)
    assert _checks(report) == ["cache-incoherent"]
    assert not moved.exists()
    assert verify_service(queue.root)["clean"]
    assert queue.job(job_id).state is JobState.DONE


def test_cache_corrupt_entry_quarantined(tmp_path):
    queue = _queue(tmp_path)
    bad = queue.cache_dir / ("ab" * 32 + ".json")
    bad.write_text("{not json")
    report = verify_service(queue.root, repair=True)
    assert _checks(report) == ["cache-corrupt"]
    assert not bad.exists()


def test_stray_cache_tmp_quarantined(tmp_path):
    queue = _queue(tmp_path)
    debris = queue.cache_dir / "tmpabc123.tmp"
    debris.write_text('{"result": ')
    report = verify_service(queue.root, repair=True)
    assert _checks(report) == ["stray-cache-tmp"]
    assert not debris.exists()


# -- what each check lists ---------------------------------------------


def glob_listing(directory, pattern):
    """The listing every check made before it read directories with
    ``os.scandir``: ``sorted(Path.glob(pattern))``."""
    return sorted(pathlib.Path(directory).glob(pattern))


def _plant_listing_corners(queue, elsewhere):
    """A drained directory holding, in every listed directory, the
    names and entry kinds a listing can get wrong."""
    ids = [queue.submit(JobSpec.for_experiment("eq1")),
           queue.submit(JobSpec.for_specs([_spec()])),
           queue.submit(JobSpec.for_specs([_spec(seed=4)]))]
    _drain(queue)
    elsewhere.mkdir()
    jobs, results = queue.jobs_dir, queue.results_dir
    (jobs / "x.json").mkdir()
    (jobs / ".hidden.json").write_text((jobs / f"{ids[0]}.json").read_text())
    (jobs / ".json").write_text("{}")
    (jobs / "notes.txt").write_text("not an artifact")
    os.replace(jobs / f"{ids[1]}.json", elsewhere / "artifact.json")
    (jobs / f"{ids[1]}.json").symlink_to(elsewhere / "artifact.json")
    (jobs / f"{ids[2]}.json").unlink()
    (jobs / f"{ids[2]}.json").symlink_to(elsewhere / "gone.json")
    os.replace(results / ids[2], elsewhere / "result")
    (results / ids[2]).symlink_to(elsewhere / "result")
    (results / "ghost").symlink_to(elsewhere / "gone")
    (results / ".hidden").mkdir()
    (results / f"{ids[0]}.tmp-w-0").mkdir()
    (results / "junk.tmp-1").write_text("")
    (queue.claims_dir / "x.claim").write_text("{}")
    (queue.claims_dir / "x.claim.bak").write_text("{}")
    (queue.cache_dir / ".json").write_text("{}")
    (queue.cache_dir / ".tmp").write_text("")
    (queue.cache_dir / "entry.json").mkdir()
    (queue.root / "telemetry").mkdir()
    (queue.root / "telemetry" / ".jsonl").write_text('{"kind":"event"}\n')
    return ids


@pytest.mark.parametrize("repair", [False, True], ids=["verify", "repair"])
def test_listings_match_the_glob_listing(tmp_path, monkeypatch, repair):
    """Each planted corner gives the findings and ``checked`` counts
    the ``Path.glob`` listing gave, with and without repairs."""
    queue = _queue(tmp_path)
    ids = _plant_listing_corners(queue, tmp_path / "elsewhere")
    snapshot = tmp_path / "snapshot"
    shutil.copytree(queue.root, snapshot, symlinks=True)
    report = verify_service(queue.root, repair=repair)
    shutil.rmtree(queue.root)
    shutil.copytree(snapshot, queue.root, symlinks=True)
    monkeypatch.setattr(fsck, "_listing", glob_listing)
    assert report == verify_service(queue.root, repair=repair)
    assert report["checked"] == {
        "cache_entries": 4, "claims": 1, "jobs": 3, "journal_records": 12,
        "results": 4, "telemetry_spools": 1}
    assert [(v["check"], v["job"], v["path"])
            for v in report["violations"]] == [
        ("artifact-corrupt", ids[2], f"jobs/{ids[2]}.json"),
        ("orphan-artifact", ".hidden", "jobs/.hidden.json"),
        ("orphan-artifact", ".json", "jobs/.json"),
        ("orphan-artifact", "x", "jobs/x.json"),
        ("orphan-result", ".hidden", "results/.hidden"),
        ("orphan-claim", "x", "claims/x.claim"),
        ("stray-workdir", "", f"results/{ids[0]}.tmp-w-0"),
        ("stray-workdir", "", "results/junk.tmp-1"),
        ("stray-cache-tmp", "", "cache/.tmp"),
        ("cache-corrupt", "", "cache/entry.json")]


@pytest.mark.parametrize("missing", ["jobs", "results"])
def test_a_missing_directory_lists_nothing(tmp_path, missing):
    queue = _queue(tmp_path)
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    _drain(queue)
    shutil.rmtree(queue.root / missing)
    report = verify_service(queue.root)
    assert _checks(report) == [{"jobs": "artifact-missing",
                                "results": "missing-result"}[missing]]
    assert report["violations"][0]["job"] == job_id
    assert report["checked"][missing] == {"jobs": 1, "results": 0}[missing]


# -- the torn-journal property sweep ------------------------------------


def _journal_with_two_records(tmp_path):
    journal = Journal(tmp_path / "j.jsonl", durable=False)
    journal.append({"type": "submit", "job": "j000000-aaaaaaaaaa",
                    "kind": "experiment"})
    journal.append({"type": "claim", "job": "j000000-aaaaaaaaaa",
                    "worker": "w0", "attempt": 0})
    return journal


def test_torn_final_record_at_every_byte_offset(tmp_path):
    """Truncate a valid journal at *every* byte offset inside the
    final record: replay must yield exactly the intact prefix — a
    torn tail is tolerated, never misread into a wrong table.  That
    includes the cut just before the final newline, which leaves a
    complete but unterminated record: readers, the append guard and
    fsck must all agree it is torn."""
    journal = _journal_with_two_records(tmp_path)
    data = journal.path.read_bytes()
    first_len = data.index(b"\n") + 1
    intact = [{"type": "submit", "job": "j000000-aaaaaaaaaa",
               "kind": "experiment"}]
    for cut in range(first_len, len(data)):
        torn = tmp_path / f"torn-{cut}.jsonl"
        torn.write_bytes(data[:cut])
        torn_journal = Journal(torn, durable=False)
        assert torn_journal.records() == intact, f"cut at byte {cut}"
        # The append guard refuses exactly when bytes trail the last
        # newline, and healing restores appendability.
        torn_bytes = torn_journal.log.torn_tail()
        assert torn_bytes == cut - first_len
        if torn_bytes:
            with pytest.raises(JournalCorruptionError):
                torn_journal.append({"type": "noop", "job": "x"})
            fragment = torn_journal.log.heal_torn_tail()
            assert fragment == data[first_len:cut]
        assert torn_journal.records() == intact
        torn_journal.append({"type": "submit", "job": "j000001-bbbbbbbbbb",
                             "kind": "run"})
        assert torn_journal.records()[-1]["job"] == "j000001-bbbbbbbbbb"


def test_record_torn_before_its_newline_survives_no_repair(tmp_path):
    """A ``done`` torn exactly before its newline was never
    acknowledged: the table must not report it, so a repair that
    drops it cannot make a reported state vanish."""
    queue = _queue(tmp_path)
    job_id = queue.submit(JobSpec.for_experiment("eq1"))
    with queue.journal.path.open("ab") as fh:
        fh.write(b'{"job":"' + job_id.encode() + b'","type":"done"}')
    before = queue.job(job_id).state
    assert before is JobState.QUEUED
    report = verify_service(queue.root, repair=True)
    assert _checks(report) == ["journal-torn-tail"]
    assert queue.job(job_id).state is before


def test_interior_corruption_still_raises(tmp_path):
    journal = _journal_with_two_records(tmp_path)
    data = journal.path.read_bytes()
    first_len = data.index(b"\n") + 1
    mangled = b"{broken" + data[first_len:]
    journal.path.write_bytes(mangled)
    with pytest.raises(JournalCorruptionError, match="unparseable"):
        journal.records()
    # fsck reports it as unrepairable rather than crashing.
    svc = tmp_path / "svc2"
    queue = JobQueue(svc, durable=False)
    queue.journal.path.write_bytes(mangled)
    report = verify_service(svc, repair=True)
    assert _checks(report) == ["journal-corrupt"]
    assert not report["ok"]


# -- end-to-end via the CLI ---------------------------------------------


def test_cli_verify_exit_codes(tmp_path, capsys):
    from repro.cli import main

    queue = _queue(tmp_path)
    queue.submit(JobSpec.for_experiment("eq1"))
    assert main(["service", "verify", "--dir", str(queue.root)]) == 0
    (queue.claims_dir / "j000099-feedfeedfe.claim").write_text("{}")
    assert main(["service", "verify", "--dir", str(queue.root)]) == 1
    assert main(["service", "verify", "--repair",
                 "--dir", str(queue.root)]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert report["repaired"] == 1
    assert main(["service", "verify", "--dir", str(queue.root)]) == 0
