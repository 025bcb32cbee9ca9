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

Records are canonical JSON (sorted keys, fixed separators) so the
journal bytes are a deterministic function of the transition sequence
— ``repro analyze lint`` holds this module to the same DET rules as
the exporters.
"""

from __future__ import annotations

import os
import pathlib

from ..durable import AppendLog
from ..errors import JournalCorruptionError

__all__ = ["Journal"]


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

    def records(self) -> list[dict]:
        """Every intact record, in append order.

        A missing file is an empty journal.  A torn final segment is
        skipped; an unparseable complete line raises
        :class:`~repro.errors.JournalCorruptionError`.
        """
        records, damaged, _ = self.log.read()
        if damaged:
            raise JournalCorruptionError(
                f"{self.path}:{damaged[0]} in the journal")
        return records

    def __len__(self) -> int:
        return len(self.records())
