"""Append-only JSONL journal — the queue's single source of truth.

The service stores queue state the way Balsam's launcher stores job
state in its database: every transition is a *record*, and the current
table is a fold over the record stream.  Here the store is a plain
JSONL file, a :class:`~repro.durable.AppendLog`, because it gives
exactly the two properties the service needs with zero dependencies:

* **Transactional appends.**  Each record is one canonical JSON line
  written with a single ``write(2)`` on an ``O_APPEND`` descriptor —
  the POSIX guarantee for append-mode writes means concurrent workers
  never interleave bytes within a line.
* **Crash evidence, not crash loss.**  A worker killed mid-append
  leaves at most one unterminated *final* segment, which
  :meth:`records` skips; everything before it is intact.  Corruption
  anywhere earlier is a real integrity failure and raises
  :class:`~repro.errors.JournalCorruptionError`.

The fold lives here too: :data:`FOLD` maps each record type to how it
moves the job it names, and :class:`JournalFold` keeps the folded
table current by parsing only the lines appended since its last look
(see its docstring).  A record type missing from :data:`FOLD` is
corruption, not something to skip.

Records are canonical JSON (sorted keys, fixed separators) so the
journal bytes are a deterministic function of the transition sequence.
"""

from __future__ import annotations

import enum
import os
import pathlib
import threading
from dataclasses import dataclass

from ..durable import AppendLog, LogTail
from ..errors import JournalCorruptionError
from .jobs import JOB_ID

__all__ = ["CLAIMABLE", "FOLD", "JobState", "JobView", "Journal",
           "JournalFold", "TERMINAL", "fold_records"]


class JobState(enum.Enum):
    """Lifecycle of one submitted job (see :mod:`repro.service.queue`)."""

    QUEUED = "queued"
    CLAIMED = "claimed"
    RUNNING = "running"
    RETRYING = "retrying"
    DONE = "done"
    FAILED = "failed"


#: States a worker may claim from.
CLAIMABLE = (JobState.QUEUED, JobState.RETRYING)
#: States with no further transitions.
TERMINAL = (JobState.DONE, JobState.FAILED)


@dataclass(slots=True)
class JobView:
    """One job's folded state (a row of :meth:`JobQueue.table`)."""

    job_id: str
    kind: str = ""
    state: JobState = JobState.QUEUED
    #: Attempt number the *next* claim will carry (= claims so far,
    #: capped by retries).
    attempts: int = 0
    #: Most recent claimant.
    worker: str = ""
    #: Most recent failure reason ("" while healthy).
    error: str = ""

    def copy(self) -> "JobView":
        return JobView(self.job_id, self.kind, self.state, self.attempts,
                       self.worker, self.error)

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state.value,
            "attempts": self.attempts,
            "worker": self.worker,
            "error": self.error,
        }


def _submit(view: JobView, record: dict) -> None:
    view.kind = str(record.get("kind", ""))


def _claim(view: JobView, record: dict) -> None:
    view.state = JobState.CLAIMED
    view.worker = str(record.get("worker", ""))
    view.attempts = int(record.get("attempt", 0)) + 1


def _run(view: JobView, record: dict) -> None:
    view.state = JobState.RUNNING
    view.worker = str(record.get("worker", ""))


def _retry(view: JobView, record: dict) -> None:
    view.state = JobState.RETRYING
    view.error = str(record.get("error", ""))


def _done(view: JobView, record: dict) -> None:
    view.state = JobState.DONE
    view.error = ""


def _fail(view: JobView, record: dict) -> None:
    view.state = JobState.FAILED
    view.error = str(record.get("error", ""))


#: Record type -> how it moves the view of the job it names.  Every
#: ``type`` the package journals must be a key here, and
#: :meth:`~repro.obs.fleet.FleetAggregator.rollups` must count each
#: one (``tests/test_service_fold.py`` holds both).
FOLD = {"submit": _submit, "claim": _claim, "run": _run, "retry": _retry,
        "done": _done, "fail": _fail}


def fold_records(views: dict[str, JobView], tail: LogTail,
                 path: "str | os.PathLike") -> int:
    """Fold ``tail``'s records through :data:`FOLD` into ``views``
    (job id -> view, in first-record order); returns the number of
    ``submit`` records.  A record with an unknown type, a job id that
    :func:`~repro.service.jobs.job_id_for` could not have produced or a
    malformed field raises :class:`~repro.errors.JournalCorruptionError`
    naming its line in ``path``; ``views`` is then partly folded."""
    submits = 0
    for record, number in zip(tail.records, tail.numbers):
        rtype = record.get("type")
        # A non-string type (a list is unhashable) is unknown too.
        handler = FOLD.get(rtype) if isinstance(rtype, str) else None
        job_id = record.get("job")
        if handler is None:
            raise JournalCorruptionError(
                f"{path}:{number}: unknown record type {rtype!r} "
                "in the journal")
        view = views.get(job_id) if isinstance(job_id, str) else None
        if view is None:
            # Every id in ``views`` passed this check when it first came.
            if not isinstance(job_id, str) or not JOB_ID.fullmatch(job_id):
                raise JournalCorruptionError(
                    f"{path}:{number}: bad job id {job_id!r} in the journal")
            view = views[job_id] = JobView(job_id)
        try:
            handler(view, record)
        except (TypeError, ValueError, OverflowError) as exc:
            raise JournalCorruptionError(
                f"{path}:{number}: malformed {rtype!r} record ({exc}) "
                "in the journal") from None
        submits += rtype == "submit"
    return submits


class Journal:
    """One append-only JSONL file of state-transition records.

    ``durable=True`` (the service default) fsyncs every append before
    returning, so an acknowledged record survives ``kill -9`` and power
    loss — the durability contract a queue's source of truth owes its
    submitters.  Tests and throwaway replays may pass ``durable=False``
    to skip the sync.
    """

    def __init__(self, path: str | os.PathLike,
                 durable: bool = True) -> None:
        self.path = pathlib.Path(path)
        #: The underlying log; fsck reads and heals its tail directly.
        self.log = AppendLog(self.path, site="journal.append",
                             durable=durable)

    def append(self, record: dict) -> None:
        """Durably append one record (a JSON-able dict) as a single
        canonical line.

        Refuses (:class:`~repro.errors.JournalCorruptionError`) when
        the file ends mid-line: appending after a torn tail would glue
        the new record onto the crash fragment.  ``repro service
        verify --repair`` heals the tail; then appends flow again.
        """
        self.log.append(record)

    def read(self) -> LogTail:
        """The whole journal in one read: every intact record in
        append order, with its line number.

        A missing file is an empty journal.  A torn final segment is
        skipped; an unparseable complete line raises
        :class:`~repro.errors.JournalCorruptionError`.
        """
        tail = self.log.read_from()
        if tail.damaged:
            raise JournalCorruptionError(
                f"{self.path}:{tail.damaged[0]} in the journal")
        return tail

    def records(self) -> list[dict]:
        """Every intact record, in append order (see :meth:`read`)."""
        return self.read().records

    def __len__(self) -> int:
        return len(self.records())


class JournalFold:
    """The job table folded from one journal, kept current in memory.

    The memo is ``(inode, offset, line, views, submits, records)``:
    the byte offset just past the last complete line folded, the
    number of lines before it, the folded views and two counts.
    :meth:`update` reads only the bytes past the offset, so a worker
    polling the queue parses each record once instead of re-folding
    the whole journal per claim.  It refolds from zero when the file
    has a new inode (replaced or quarantined) or is shorter than the
    offset (truncated).  An unterminated final segment never advances
    the offset: another worker may still be appending it.  Nothing is
    indexed on disk; the memo lives and dies with the process.

    A damaged line, or a record with an unknown type, a bad job id or a
    malformed field, raises :class:`~repro.errors.JournalCorruptionError`
    naming its line, counted from the start of the file.  A damaged
    line leaves the memo as it was; a bad record empties it, since part
    of its chunk was folded.  Either way the next update raises again.
    """

    def __init__(self, journal: Journal) -> None:
        self.journal = journal
        self._lock = threading.Lock()
        self._reset()

    def _reset(self) -> None:
        self.ino = self.offset = self.line = 0
        #: job id -> its private, mutable view (in first-record order).
        self.views: dict[str, JobView] = {}
        #: ``submit`` records folded (the next submission's ordinal).
        self.submits = 0
        #: Records folded.
        self.records = 0

    def update(self) -> "JournalFold":
        """Fold the lines appended since the last update; returns
        ``self``.  Callers must not mutate :attr:`views`."""
        with self._lock:
            tail = self.journal.log.read_from(self.ino, self.offset,
                                              self.line)
            if tail.rewound:
                self._reset()
            if tail.damaged:
                raise JournalCorruptionError(
                    f"{self.journal.path}:{tail.damaged[0]} in the journal")
            try:
                self.submits += fold_records(self.views, tail,
                                             self.journal.path)
            except BaseException:
                # Some of the chunk is folded: start over next time.
                self._reset()
                raise
            self.records += len(tail.records)
            self.ino, self.offset, self.line = \
                tail.ino, tail.offset, tail.line
            return self
