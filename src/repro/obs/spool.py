"""Telemetry spool — the worker fleet's durable flight recorder.

Since PR 7 the system's real execution surface is a multi-process
worker fleet, and everything :mod:`repro.obs` observes in a worker —
metric snapshots, trace segments, job-lifecycle events — evaporates
when the worker exits (or is ``kill -9``'d by the chaos layer).  The
spool fixes that the same way the journal fixed queue state: each
worker appends canonical-JSONL records to its own file under
``<service-root>/telemetry/<worker-id>.jsonl``, a
:class:`~repro.durable.AppendLog` fsync'd when ``durable=True`` — so a
crash loses at most the final record, and what survives is exactly
what the worker had acknowledged writing.

Differences from :class:`~repro.service.journal.Journal`, on purpose:

* **Single writer.**  A spool has exactly one writing source (the
  worker it is named after), so a torn tail is always *our own* crash
  evidence — the appender self-heals by truncating the fragment
  instead of refusing like the journal (whose refusal protects
  concurrent appenders from gluing records onto foreign fragments).
* **Best-effort reads.**  The journal is the queue's source of truth
  and interior corruption there is an integrity failure; a spool is
  telemetry, so :func:`read_spool` skips-and-counts damaged lines and
  lets ``repro service verify`` quarantine the evidence.

Records carry a per-spool logical clock (``lc``), never wall time, so
merged fleet views (:mod:`repro.obs.fleet`) sort deterministically.
The ``telemetry.append`` chaos site wraps the write, putting the spool
under the same torn-write/kill/io-error soak as every other durable
file in the service directory.
"""

from __future__ import annotations

import os
import pathlib

from ..durable import AppendLog
from ..errors import ConfigurationError

__all__ = ["TelemetrySpool", "read_spool", "spool_dir"]

#: Record kinds a spool carries.  ``event`` — one job-lifecycle or
#: worker-lifecycle transition; ``segment`` — the layer/event summary
#: of one traced job execution; ``metrics`` — a point-in-time snapshot
#: of the worker's counters.
RECORD_KINDS = ("event", "metrics", "segment")

#: Subdirectory (under the service root) that holds the spools.
TELEMETRY_DIR = "telemetry"


def spool_dir(root: "str | os.PathLike") -> pathlib.Path:
    """Where a service directory's telemetry spools live."""
    return pathlib.Path(root) / TELEMETRY_DIR


class TelemetrySpool:
    """One worker's append-only telemetry file.

    ``source`` names the writer (the worker id) and is stamped into
    every record; ``durable=True`` fsyncs each append, matching the
    journal's acked-record-survives-kill-9 contract.  The spool is
    single-writer: a torn tail found at append time is this source's
    own prior crash and is truncated (self-healed) before the new
    record lands.
    """

    def __init__(self, path: "str | os.PathLike", source: str,
                 durable: bool = True) -> None:
        if not source:
            raise ConfigurationError("a telemetry spool needs a source id")
        self.path = pathlib.Path(path)
        self.source = source
        #: Per-spool logical clock: the deterministic record order the
        #: fleet aggregator merges on.  Never wall time.
        self.lc = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._log = AppendLog(self.path, site="telemetry.append",
                              durable=durable, heal=True)

    # -- recording -----------------------------------------------------

    def emit(self, kind: str, name: str, **fields: object) -> dict:
        """Append one record; returns it.  ``fields`` must be
        JSON-serializable annotations (job ids, counts — small)."""
        if kind not in RECORD_KINDS:
            raise ConfigurationError(
                f"unknown spool record kind {kind!r}; "
                f"known: {RECORD_KINDS}")
        record = dict(fields)
        record.update({"kind": kind, "lc": self.lc, "name": name,
                       "source": self.source})
        self.lc += 1
        self._log.append(record)
        return record

    def event(self, name: str, job: str = "", **fields: object) -> dict:
        """A lifecycle event (``submit``/``claim``/``run``/... on the
        job side, ``worker.start``/``worker.exit`` on the worker side)."""
        return self.emit("event", name, job=job, **fields)

    def segment(self, job: str, layers: dict, events: int,
                dropped: int) -> dict:
        """The trace-segment summary of one executed job: per-layer
        event counts from the execution-scoped tracer."""
        return self.emit("segment", "trace", job=job, layers=dict(layers),
                         events=int(events), dropped=int(dropped))

    def metrics(self, snapshot: dict) -> dict:
        """A point-in-time snapshot of the worker's counters."""
        return self.emit("metrics", "snapshot", **snapshot)


def read_spool(path: "str | os.PathLike"
               ) -> "tuple[list[dict], dict]":
    """Every intact record of one spool, plus a damage summary.

    Returns ``(records, problems)`` where ``problems`` is
    ``{"torn_tail": bool, "corrupt_lines": int}``.  A missing file is
    an empty spool.  An unterminated final segment is a crash-truncated
    append (``torn_tail``); unparseable complete lines are counted and
    skipped — telemetry reads are best-effort, the journal stays the
    source of truth.
    """
    records, damaged, torn = AppendLog(path).read()
    return records, {"torn_tail": torn, "corrupt_lines": len(damaged)}
