"""fsck for the service directory: verify invariants, repair safely.

The journal is the queue's source of truth, but the service directory
also carries derived state — submission artifacts, claim files, result
directories, the shared run cache — and a crash (real or injected by
:mod:`repro.chaos`) can strand any of them out of step with the
journal.  This module writes the invariants down as code, checks every
one, and repairs exactly the cases where one repair is provably safe:

==========================  =======================================
violation                   repair (``--repair``)
==========================  =======================================
``journal-torn-tail``       truncate the torn fragment off the
                            journal; quarantine the bytes
``journal-corrupt``         none — interior corruption is a real
                            integrity failure; restore from backup
``artifact-missing``        none — the submission bytes are gone
``artifact-corrupt``        none — ditto
``orphan-artifact``         quarantine the artifact (a crash between
                            artifact freeze and the submit record)
``orphan-claim``            quarantine the claim file
``torn-claim``              quarantine the claim; re-queue the job
``stale-claim``             quarantine the claim (job already
                            terminal — crash before claim drop)
``unjournaled-claim``       quarantine the claim (claim file landed,
                            claim record never did)
``lease-epoch-mismatch``    quarantine the claim; re-queue the job
``lost-lease``              re-queue the job (CLAIMED/RUNNING with
                            no claim file left to observe)
``unpublished-result``      append the missing ``done`` record (the
                            publish rename is atomic, so the result
                            directory is complete by construction)
``orphan-result``           quarantine the result directory
``failed-with-result``      none — reported, left in place
``missing-result``          none — a DONE job's artifacts are gone
``stray-workdir``           quarantine the ``*.tmp-*`` directory
``cache-corrupt``           quarantine the cache entry
``cache-incoherent``        quarantine the cache entry (embedded
                            spec no longer hashes to the file name)
``stray-cache-tmp``         quarantine the ``*.tmp`` file
``telemetry-torn-tail``     truncate the torn fragment off the
                            spool; quarantine the bytes
``telemetry-corrupt``       quarantine the whole spool (interior
                            lines unparseable — telemetry is
                            evidence, never load-bearing state)
==========================  =======================================

Check order matters: results are reconciled *before* claims and
lost leases, so a crash after the publish rename but before the
``done`` record repairs to DONE — not to a pointless (if convergent)
re-execution.

Everything quarantined lands under ``<root>/quarantine/`` with its
sub-tree preserved; nothing is ever deleted.  The report is canonical
JSON — byte-stable for identical directory states.
"""

from __future__ import annotations

import fnmatch
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Optional

from ..durable import AppendLog, quarantine, quarantine_path
from ..errors import JournalCorruptionError, ReproError
from ..faults.tolerance import RetryPolicy
from ..obs.export import canonical_json
from ..obs.metrics import get_metrics
from ..obs.spool import spool_dir
from ..perf.fingerprint import spec_key
from .jobs import JobSpec
from .queue import TERMINAL, JobQueue, JobState

__all__ = ["ServiceFsck", "report_json", "verify_service"]

#: Subdirectory (under the service root) where repairs move evidence.
QUARANTINE_DIR = "quarantine"


@dataclass
class _Finding:
    """One invariant violation (and, after ``--repair``, its outcome)."""

    check: str
    detail: str
    job: str = ""
    path: str = ""
    repairable: bool = False
    repaired: bool = False
    repair: str = ""

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "detail": self.detail,
            "job": self.job,
            "path": self.path,
            "repairable": self.repairable,
            "repaired": self.repaired,
            "repair": self.repair,
        }


@dataclass
class ServiceFsck:
    """One verify (or verify-and-repair) pass over a service directory.

    Construct with the queue to inspect, call :meth:`run`, read the
    report.  ``repair=False`` never mutates anything; ``repair=True``
    performs exactly the safe repairs in the table above.
    """

    queue: JobQueue
    repair: bool = False
    findings: list = field(default_factory=list)
    checked: dict = field(default_factory=dict)

    # -- entry point --------------------------------------------------

    def run(self) -> dict:
        root = self.queue.root
        self.checked = {"journal_records": 0, "jobs": 0, "claims": 0,
                        "results": 0, "cache_entries": 0,
                        "telemetry_spools": 0}
        self._check_journal_tail()
        try:
            table = self.queue.table()
        except JournalCorruptionError as exc:
            self._found("journal-corrupt", str(exc),
                        path=self._rel(self.queue.journal.path))
            return self._report(root)
        self.checked["journal_records"] = self.queue.fold.records
        self._check_artifacts(table)
        self._check_results(table)
        # Re-fold between phases: each repair group may have appended
        # records (a 'done' for an unpublished result, a 'retry' for a
        # quarantined claim), and the next phase must judge the claims
        # and leases against the *repaired* state, not a stale fold.
        self._check_claims(self.queue.table())
        self._check_lost_leases(self.queue.table())
        self._check_stray_workdirs()
        self._check_cache()
        self._check_telemetry()
        return self._report(root)

    # -- invariants ---------------------------------------------------

    def _check_journal_tail(self) -> None:
        journal = self.queue.journal
        torn = journal.log.torn_tail()
        if torn == 0:
            return  # healthy, or no journal yet (an empty dir is clean)
        finding = self._found(
            "journal-torn-tail",
            f"journal ends mid-line ({torn} torn bytes — crash "
            "evidence from an interrupted append)",
            path=self._rel(journal.path), repairable=True,
            repair="truncate the fragment; quarantine its bytes")
        if not self.repair:
            return
        fragment = journal.log.heal_torn_tail()
        self._write_quarantine("journal.tail", fragment)
        finding.repaired = True

    def _check_artifacts(self, table: dict) -> None:
        jobs_dir = self.queue.jobs_dir
        on_disk = {_stem(p.name): p for p in _listing(jobs_dir, "*.json")}
        self.checked["jobs"] = len(table)
        # Submission texts that decoded cleanly: identical bytes decode
        # identically, so each distinct text is decoded once per run.
        # Failures are not kept — every job carrying a corrupt text
        # gets its own finding.
        decoded: set = set()
        for job_id in sorted(table):
            path = on_disk.pop(job_id, None)
            if path is None:
                self._found(
                    "artifact-missing",
                    "journaled job has no submission artifact "
                    f"(expected {self._rel(jobs_dir / (job_id + '.json'))})",
                    job=job_id)
                continue
            try:
                with open(path) as fh:
                    text = fh.read()
                if text not in decoded:
                    JobSpec.from_dict(json.loads(text))
                    decoded.add(text)
            except (OSError, ValueError, ReproError) as exc:
                self._found(
                    "artifact-corrupt",
                    f"submission artifact unreadable: {exc}",
                    job=job_id, path=self._rel(path))
        for job_id in sorted(on_disk):
            path = on_disk[job_id]
            finding = self._found(
                "orphan-artifact",
                "submission artifact was frozen but its submit record "
                "never reached the journal (crash at queue.submit)",
                job=job_id, path=self._rel(path), repairable=True,
                repair="quarantine the artifact")
            if self.repair:
                self._quarantine(path)
                finding.repaired = True

    def _check_results(self, table: dict) -> None:
        results_dir = self.queue.results_dir
        # ``*.tmp-*`` entries are in-flight workdirs, not published
        # results — they have their own stray-workdir check.
        dirs = {p.name: p for p in _listing(results_dir, "*")
                if p.is_dir() and ".tmp-" not in p.name}
        self.checked["results"] = len(dirs)
        for job_id in sorted(table):
            view = table[job_id]
            published = dirs.pop(job_id, None)
            if view.state is JobState.DONE and published is None:
                self._found(
                    "missing-result",
                    "job is done but its result directory is gone",
                    job=job_id,
                    path=self._rel(results_dir / job_id))
            elif view.state is JobState.FAILED and published is not None:
                self._found(
                    "failed-with-result",
                    "failed job has a published result directory "
                    "(left in place for post-mortem)",
                    job=job_id, path=self._rel(published))
            elif view.state not in TERMINAL and published is not None:
                finding = self._found(
                    "unpublished-result",
                    "result directory is published but the 'done' "
                    "record never reached the journal (crash at "
                    "worker.publish.post_rename)",
                    job=job_id, path=self._rel(published),
                    repairable=True,
                    repair="append the missing 'done' record; drop "
                           "the claim")
                if self.repair:
                    self.queue.complete(job_id, view.worker or "fsck",
                                        max(0, view.attempts - 1))
                    finding.repaired = True
        for name in sorted(dirs):
            finding = self._found(
                "orphan-result",
                "result directory names no journaled job",
                job=name, path=self._rel(dirs[name]), repairable=True,
                repair="quarantine the directory")
            if self.repair:
                self._quarantine(dirs[name])
                finding.repaired = True

    def _check_claims(self, table: dict) -> None:
        claims_dir = self.queue.claims_dir
        paths = _listing(claims_dir, "*.claim")
        self.checked["claims"] = len(paths)
        for path in paths:
            job_id = path.name[:-len(".claim")]
            view = table.get(job_id)
            payload = self.queue.read_claim(job_id)
            if view is None:
                self._claim_violation(
                    "orphan-claim", path, job_id,
                    "claim file names no journaled job")
            elif payload is None:
                self._claim_violation(
                    "torn-claim", path, job_id,
                    "claim payload is unparseable (crash mid-rewrite "
                    "at queue.lease_bump)", requeue=view)
            elif view.state in TERMINAL:
                self._claim_violation(
                    "stale-claim", path, job_id,
                    f"claim file outlived the terminal job "
                    f"({view.state.value}; crash at queue.complete)")
            elif view.state in (JobState.QUEUED, JobState.RETRYING):
                self._claim_violation(
                    "unjournaled-claim", path, job_id,
                    "claim file exists but no claim record was "
                    "journaled (crash at queue.claim)")
            else:
                attempt = int(payload.get("attempt", -1))
                worker = str(payload.get("worker", ""))
                if attempt != view.attempts - 1 or worker != view.worker:
                    self._claim_violation(
                        "lease-epoch-mismatch", path, job_id,
                        f"claim (worker={worker!r}, attempt={attempt}) "
                        f"disagrees with the journal (worker="
                        f"{view.worker!r}, attempt={view.attempts - 1})",
                        requeue=view)

    def _claim_violation(self, check: str, path: os.PathLike,
                         job_id: str, detail: str,
                         requeue=None) -> None:
        repair = "quarantine the claim"
        if requeue is not None:
            repair += "; re-queue the job"
        finding = self._found(check, detail, job=job_id,
                              path=self._rel(path), repairable=True,
                              repair=repair)
        if not self.repair:
            return
        self._quarantine(path)
        if requeue is not None:
            self.queue.requeue(job_id, f"fsck: {check}")
        finding.repaired = True

    def _check_lost_leases(self, table: dict) -> None:
        for job_id in sorted(table):
            view = table[job_id]
            if view.state not in (JobState.CLAIMED, JobState.RUNNING):
                continue
            if self.queue._claim_path(job_id).exists():
                continue
            finding = self._found(
                "lost-lease",
                f"job is {view.state.value} but its claim file is gone "
                "(crash at queue.lease_break, or claim quarantined); "
                "no heartbeat exists for the reaper to observe",
                job=job_id, repairable=True,
                repair="re-queue the job (charges the retry budget)")
            if self.repair:
                self.queue.requeue(job_id, "fsck: lost-lease")
                finding.repaired = True

    def _check_stray_workdirs(self) -> None:
        for path in _listing(self.queue.results_dir, "*.tmp-*"):
            finding = self._found(
                "stray-workdir",
                "abandoned work directory (crash mid-execution or at "
                "worker.publish.pre_rename)",
                path=self._rel(path), repairable=True,
                repair="quarantine the directory")
            if self.repair:
                self._quarantine(path)
                finding.repaired = True

    def _check_cache(self) -> None:
        cache_dir = self.queue.cache_dir
        for path in _listing(cache_dir, "*.tmp"):
            finding = self._found(
                "stray-cache-tmp",
                "abandoned cache write (crash at cache.put)",
                path=self._rel(path), repairable=True,
                repair="quarantine the file")
            if self.repair:
                self._quarantine(path)
                finding.repaired = True
        for path in _listing(cache_dir, "*.json"):
            self.checked["cache_entries"] += 1
            try:
                with open(path) as fh:
                    entry = json.loads(fh.read())
            except (OSError, ValueError) as exc:
                self._cache_violation(
                    "cache-corrupt", path,
                    f"cache entry unreadable: {exc}")
                continue
            spec_payload = entry.get("spec") \
                if isinstance(entry, dict) else None
            if spec_payload is None:
                continue  # legacy/self-describing-less entry: no check
            try:
                from ..platform.spec import RunSpec
                key = spec_key(RunSpec.from_dict(spec_payload))
            except (ReproError, ValueError, TypeError) as exc:
                self._cache_violation(
                    "cache-corrupt", path,
                    f"embedded spec unreadable: {exc}")
                continue
            if key != _stem(path.name):
                self._cache_violation(
                    "cache-incoherent", path,
                    f"embedded spec hashes to {key[:12]}…, not the "
                    "entry's file name — the bytes answer a different "
                    "question than the address asks")

    def _cache_violation(self, check: str, path: os.PathLike,
                         detail: str) -> None:
        finding = self._found(check, detail, path=self._rel(path),
                              repairable=True,
                              repair="quarantine the entry")
        if self.repair:
            self._quarantine(path)
            finding.repaired = True

    def _check_telemetry(self) -> None:
        """Telemetry spools are evidence, never load-bearing state, so
        every repair is safe: a torn tail (worker died mid-append) is
        truncated with the fragment quarantined, and a spool with
        unparseable *interior* lines is quarantined whole — the
        aggregator must never fold half-trusted records."""
        for path in _listing(spool_dir(self.queue.root), "*.jsonl"):
            self.checked["telemetry_spools"] += 1
            spool = AppendLog(path, durable=self.queue.durable)
            torn = spool.torn_tail()
            if torn:
                finding = self._found(
                    "telemetry-torn-tail",
                    f"spool ends mid-line ({torn} torn bytes — the "
                    "worker died mid-append)",
                    path=self._rel(path), repairable=True,
                    repair="truncate the fragment; quarantine its bytes")
                if self.repair:
                    fragment = spool.heal_torn_tail()
                    self._write_quarantine(
                        f"telemetry/{path.name}.tail", fragment)
                    finding.repaired = True
            _, damaged, _ = spool.read()
            if damaged:
                finding = self._found(
                    "telemetry-corrupt",
                    f"{len(damaged)} interior line(s) "
                    "unparseable — the spool cannot be trusted",
                    path=self._rel(path), repairable=True,
                    repair="quarantine the spool")
                if self.repair:
                    self._quarantine(path)
                    finding.repaired = True

    # -- plumbing -----------------------------------------------------

    def _found(self, check: str, detail: str, job: str = "",
               path: str = "", repairable: bool = False,
               repair: str = "") -> _Finding:
        finding = _Finding(check=check, detail=detail, job=job,
                           path=path, repairable=repairable,
                           repair=repair)
        self.findings.append(finding)
        get_metrics().counter("service.fsck.violations", check=check).inc()
        return finding

    def _rel(self, path: "os.PathLike | str") -> str:
        try:
            return str(pathlib.Path(path).relative_to(self.queue.root))
        except ValueError:
            return str(path)

    def _quarantine(self, path: os.PathLike) -> None:
        """Move evidence under ``quarantine/`` (sub-tree preserved,
        numeric suffix on collision); never delete."""
        quarantine(path, self.queue.root / QUARANTINE_DIR, self._rel(path))
        get_metrics().counter("service.fsck.repairs").inc()

    def _write_quarantine(self, name: str, data: bytes) -> None:
        """Quarantine loose bytes (the healed journal fragment)."""
        quarantine_path(self.queue.root / QUARANTINE_DIR,
                        name).write_bytes(data)
        get_metrics().counter("service.fsck.repairs").inc()

    def _report(self, root: pathlib.Path) -> dict:
        violations = [f.to_dict() for f in self.findings]
        unrepaired = [v for v in violations if not v["repaired"]]
        return {
            "root": str(root),
            "repair": self.repair,
            "checked": dict(sorted(self.checked.items())),
            "violations": violations,
            "repaired": sum(1 for v in violations if v["repaired"]),
            "unrepaired": len(unrepaired),
            "clean": not violations,
            "ok": not unrepaired,
        }


def _listing(directory: pathlib.Path, pattern: str) -> "list[os.DirEntry]":
    """The entries of ``directory`` whose names match ``pattern``
    (``*`` wildcards, case-sensitive), sorted by name: what
    ``sorted(directory.glob(pattern))`` lists, hidden names, dirs and
    broken symlinks included, without a path object per entry or per
    comparison.  An entry is a path (``os.fspath``) with a ``name`` and
    an ``is_dir()`` that follows symlinks.  A missing or unreadable
    directory lists nothing."""
    try:
        with os.scandir(directory) as it:
            entries = [entry for entry in it
                       if fnmatch.fnmatchcase(entry.name, pattern)]
    except OSError:
        return []
    entries.sort(key=lambda entry: entry.name)
    return entries


def _stem(name: str) -> str:
    """``PurePath(name).stem``: a name that is only a suffix, like
    ``.json``, keeps it."""
    cut = name.rfind(".")
    return name[:cut] if 0 < cut < len(name) - 1 else name


def verify_service(directory: "str | os.PathLike | None" = None,
                   repair: bool = False,
                   retry: Optional[RetryPolicy] = None,
                   durable: bool = True) -> dict:
    """Verify (and with ``repair=True``, repair) a service directory.

    Returns the fsck report dict; ``report["clean"]`` means no
    violation was found, ``report["ok"]`` means none is *left* —
    ``repro service verify`` maps these to exit codes (0 when ok,
    1 when violations remain).  ``retry`` overrides the re-queue
    budget repairs charge against (the soak passes a generous one so
    injected strandings never exhaust a job).
    """
    queue = JobQueue(directory, retry=retry, create=False,
                     durable=durable)
    report = ServiceFsck(queue=queue, repair=repair).run()
    return report


def report_json(report: dict) -> str:
    """The canonical-JSON rendering ``repro service verify`` prints."""
    return canonical_json(report)
