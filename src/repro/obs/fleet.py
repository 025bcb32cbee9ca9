"""Fleet telemetry aggregation — deterministic views over worker spools.

A worker fleet leaves two kinds of evidence behind: the journal (the
queue's source of truth) and one telemetry spool per worker
(:mod:`repro.obs.spool`).  This module folds both into fleet-level
views, split deliberately into two tiers:

* **The deterministic core** (:meth:`FleetAggregator.report`): per-job
  canonical lifecycle spans on logical clocks, artifact digests, and
  state totals — derived only from *committed* facts (the folded job
  table and the published bytes), never from worker ids, attempt
  counts, wall time, or scheduling accidents.  The report is therefore
  **byte-identical for 1..N workers and across re-runs** of the same
  submission sequence — the gem5-reproducibility bar applied to
  telemetry itself — and doubles as an artifact-integrity manifest
  (every published file appears with its SHA-256).  ``repro service
  report`` prints it; CI ``cmp``'s it across worker counts.
* **Forensic rollups** (:meth:`FleetAggregator.rollups`): retries,
  lease breaks, goodput, queue-depth high-water mark, per-worker spool
  stats — the operational truth of *this particular* run, exactly the
  numbers that differ across crash interleavings.  ``repro service
  top`` renders them; ``report --check`` holds them against an SLO
  rule file; they are never byte-compared.

Exports match the tracer's writers: :meth:`chrome` renders the
canonical span timeline on the 9th ("service") trace layer in the
bytes of :func:`~repro.obs.export.chrome_trace_json`; :meth:`prometheus`
renders the core as a :class:`~repro.obs.metrics.MetricsRegistry`
through :func:`~repro.obs.export.prometheus_text`.
"""

from __future__ import annotations

import hashlib
import os
from typing import Optional

from ..errors import ConfigurationError, ServiceError
from ..jsonfields import check, document, parse, read_text
from ..service.journal import fold_records
from .export import _us, canonical_json, chrome_trace, prometheus_text
from .metrics import MetricsRegistry
from .spool import read_spool, spool_dir
from .tracer import LAYERS, Tracer

__all__ = ["DEFAULT_SLO", "FleetAggregator", "load_slo"]

#: Format version stamped into the aggregated report (bumped on layout
#: changes, like TRACE_FORMAT_VERSION).
REPORT_FORMAT_VERSION = 1

#: The journal record types :meth:`FleetAggregator.rollups` counts:
#: every key of :data:`repro.service.journal.FOLD`.
ROLLUP_TYPES = ("submit", "claim", "run", "retry", "done", "fail")

#: Default SLO rules ``report --check`` evaluates when no rule file is
#: given.  ``max_retry_rate`` — journaled retries per claim;
#: ``max_lease_breaks`` — absolute broken-lease count;
#: ``min_goodput`` — done jobs per claim (1.0 when nothing claimed).
DEFAULT_SLO = {
    "max_retry_rate": 0.5,
    "max_lease_breaks": 8,
    "min_goodput": 0.5,
}

#: The canonical committed lifecycle per folded state: span names in
#: logical-clock order.  Only committed facts — no worker ids, no
#: attempt counts — so the span tree is identical for any fleet size.
_STATE_SPANS = {
    "queued": ("submit",),
    "claimed": ("submit", "claim"),
    "running": ("submit", "claim", "run"),
    "retrying": ("submit", "retry"),
    "done": ("submit", "claim", "run", "done"),
    "failed": ("submit", "fail"),
}

#: One instant event of :meth:`FleetAggregator.chrome` in canonical
#: JSON (keys sorted), formatted with the actor's JSON, ``lc``, the
#: span name and the timestamp in microseconds.
_CHROME_EVENT = ('{"args":{"actor":%%s,"lc":%%d},"cat":"service",'
                 '"name":"%%s","ph":"i","pid":1,"s":"t","tid":%d,'
                 '"ts":%%r}' % LAYERS.index("service"))


def load_slo(path: "str | os.PathLike") -> dict:
    """Load an SLO rule file (JSON object; keys from
    :data:`DEFAULT_SLO`, values finite JSON numbers).  Unknown keys and
    ``NaN`` are a :class:`~repro.errors.ConfigurationError`, so a typo
    never silently disables a rule."""
    where = f"SLO rules {path}"
    payload = document(parse(read_text(path, "SLO rules"), where), where,
                       DEFAULT_SLO, item="rule")
    for key, value in payload.items():
        check(value, "number", where, key)
    return dict(payload)


def _manifest(directory: str, prefix: str, out: list) -> None:
    """Append a (path, sha256, bytes) entry per file under
    ``directory`` in ``sorted(Path.rglob("*"))`` order: each
    directory's entries sorted by name, descended depth-first, so
    ``a/x.txt`` precedes ``a.json``.  Like ``rglob``, a symlinked
    directory is not entered and a symlinked file is digested through
    its target; a missing or non-directory path adds nothing."""
    try:
        entries = sorted(os.scandir(directory), key=lambda e: e.name)
    except (FileNotFoundError, NotADirectoryError):
        return
    for entry in entries:
        path = prefix + entry.name
        if entry.is_dir(follow_symlinks=False):
            _manifest(entry.path, path + "/", out)
        elif entry.is_file():
            with open(entry.path, "rb") as fh:
                data = fh.read()
            out.append({
                "bytes": len(data),
                "path": path,
                "sha256": hashlib.sha256(data).hexdigest(),
            })


class FleetAggregator:
    """One aggregation pass over a service directory's evidence.

    A point-in-time snapshot: the journal and the spools are read once,
    here, and :meth:`prometheus` publishes the manifest totals of this
    aggregator's last :meth:`report` (building one only when none was),
    so ``report_json`` + ``prometheus`` + ``chrome`` on one aggregator
    read and digest every published file once."""

    def __init__(self, queue) -> None:
        self.queue = queue
        #: worker id -> {"records": [...], "problems": {...}} for every
        #: spool on disk, in sorted order.
        self.spools: dict[str, dict] = {}
        tdir = spool_dir(queue.root)
        if tdir.is_dir():
            for path in sorted(tdir.glob("*.jsonl")):
                records, problems = read_spool(path)
                self.spools[path.name[:-len(".jsonl")]] = {
                    "records": records, "problems": problems}
        # One read serves the rollups and the job table, so both come
        # from the same bytes.
        tail = queue.journal.read()
        self._records = tail.records
        self._table: dict = {}
        fold_records(self._table, tail, queue.journal.path)
        #: The ``totals`` of the last :meth:`report` — kept instead of
        #: the report itself, so no per-job data outlives a render.
        self._totals: Optional[dict] = None

    @classmethod
    def from_service_dir(cls, directory: "str | os.PathLike | None" = None
                         ) -> "FleetAggregator":
        from ..service.queue import JobQueue

        queue = JobQueue(directory, create=False)
        if not queue.root.is_dir():
            raise ServiceError(
                f"no service directory at {queue.root} "
                "(nothing submitted yet — see 'repro submit')")
        return cls(queue)

    # -- the deterministic core ---------------------------------------

    def report(self) -> dict:
        """The canonical fleet report — byte-identical for any worker
        count and across re-runs of the same submission sequence."""
        jobs = []
        by_state: dict[str, int] = {}
        total_files = 0
        total_bytes = 0
        for job_id in sorted(self._table):
            view = self._table[job_id]
            state = view.state.value
            by_state[state] = by_state.get(state, 0) + 1
            artifacts = self._artifacts(job_id, state)
            total_files += len(artifacts)
            total_bytes += sum(a["bytes"] for a in artifacts)
            jobs.append({
                "artifacts": artifacts,
                "job": job_id,
                "kind": view.kind,
                "spans": [{"lc": lc, "name": name} for lc, name
                          in enumerate(_STATE_SPANS[state])],
                "state": state,
            })
        self._totals = {
            "artifact_bytes": total_bytes,
            "artifact_files": total_files,
            "by_state": dict(sorted(by_state.items())),
            "jobs": len(jobs),
        }
        return {
            "formatVersion": REPORT_FORMAT_VERSION,
            "jobs": jobs,
            "totals": self._totals,
        }

    def _artifacts(self, job_id: str, state: str) -> list:
        """Sorted (path, sha256, bytes) manifest of a DONE job's
        published files — the committed bytes, digested."""
        if state != "done":
            return []
        out: list = []
        _manifest(str(self.queue.result_dir(job_id)), "", out)
        return out

    def report_json(self) -> str:
        return canonical_json(self.report()) + "\n"

    def chrome(self) -> str:
        """The canonical span timeline as Chrome trace JSON: one
        instant event per committed lifecycle step on the ``service``
        layer, jobs laid end to end in id order on a logical clock.

        The bytes are :func:`~repro.obs.export.chrome_trace_json` of a
        tracer holding these events, but no event object is built: the
        spans depend only on the job id and its folded state (so the
        timeline reads the journal's table and no result file), every
        event has one shape, and each is formatted straight into its
        canonical text.  Unlike a tracer's ring, nothing is dropped at
        any size."""
        events = []
        clock = 0
        for job_id in sorted(self._table):
            actor = canonical_json(job_id)
            for lc, name in enumerate(
                    _STATE_SPANS[self._table[job_id].state.value]):
                events.append(_CHROME_EVENT % (actor, lc, name, _us(clock)))
                clock += 1
        skeleton = chrome_trace(
            Tracer(), metadata={"reportFormatVersion": REPORT_FORMAT_VERSION,
                                "source": "repro service report"})
        if events:
            skeleton["otherData"]["layers"] = {"service": len(events)}
        # ``traceEvents`` sorts last and its metadata events make it
        # non-empty, so the events go in just before the closing "]}".
        return (canonical_json(skeleton)[:-2]
                + "".join("," + event for event in events) + "]}\n")

    def prometheus(self) -> str:
        """The deterministic core as Prometheus exposition text, plus
        ``repro_obs_dropped_total`` summed from spool trace segments
        (a fleet whose rings overflowed says so here)."""
        totals = self._totals if self._totals is not None \
            else self.report()["totals"]
        registry = MetricsRegistry()
        for state, n in totals["by_state"].items():
            registry.gauge("service.fleet.jobs", state=state).set(n)
        registry.gauge("service.fleet.artifact_files").set(
            totals["artifact_files"])
        registry.gauge("service.fleet.artifact_bytes").set(
            totals["artifact_bytes"])
        tracer = Tracer()
        tracer.dropped = self._segments_dropped()
        return prometheus_text(registry, tracer=tracer)

    def _segments_dropped(self) -> int:
        """Drops the spools' trace segments report; a ``dropped`` field
        ``int()`` cannot read counts none (a spool is evidence, and a
        damaged one must not stop the report)."""
        dropped = 0
        for worker in sorted(self.spools):
            for record in self.spools[worker]["records"]:
                if record.get("kind") == "segment":
                    try:
                        dropped += int(record.get("dropped", 0) or 0)
                    except (TypeError, ValueError, OverflowError):
                        pass
        return dropped

    # -- forensic rollups ---------------------------------------------

    def rollups(self) -> dict:
        """Operational truth of this particular run — never
        byte-compared across runs or worker counts."""
        counts = dict.fromkeys(ROLLUP_TYPES, 0)
        lease_breaks = 0
        claimable: set = set()
        depth_max = 0
        for record in self._records:
            rtype = record.get("type")
            job = record.get("job")
            if rtype in counts:
                counts[rtype] += 1
            if rtype in ("retry", "fail") and \
                    str(record.get("error", "")).startswith("lease expired"):
                lease_breaks += 1
            if rtype in ("submit", "retry"):
                claimable.add(job)
            elif rtype in ("claim", "done", "fail"):
                claimable.discard(job)
            depth_max = max(depth_max, len(claimable))
        claims = counts["claim"]
        goodput = counts["done"] / claims if claims else 1.0
        retry_rate = counts["retry"] / claims if claims else 0.0
        workers = {}
        for worker in sorted(self.spools):
            spool = self.spools[worker]
            kinds = {"event": 0, "metrics": 0, "segment": 0}
            for record in spool["records"]:
                kind = record.get("kind")
                if isinstance(kind, str) and kind in kinds:
                    kinds[kind] += 1
            workers[worker] = {
                "records": len(spool["records"]),
                "events": kinds["event"],
                "segments": kinds["segment"],
                "snapshots": kinds["metrics"],
                "torn_tail": spool["problems"]["torn_tail"],
                "corrupt_lines": spool["problems"]["corrupt_lines"],
            }
        return {
            "claims": claims,
            "dones": counts["done"],
            "fails": counts["fail"],
            "goodput": goodput,
            "lease_breaks": lease_breaks,
            "max_queue_depth": depth_max,
            "retries": counts["retry"],
            "retry_rate": retry_rate,
            "submits": counts["submit"],
            "telemetry": {
                "corrupt_lines": sum(w["corrupt_lines"]
                                     for w in workers.values()),
                "spools": len(workers),
                "torn_tails": sum(1 for w in workers.values()
                                  if w["torn_tail"]),
            },
            "workers": workers,
        }

    # -- SLO evaluation -----------------------------------------------

    def check(self, slo: Optional[dict] = None) -> dict:
        """Hold the rollups against SLO rules; ``ok`` is the verdict.

        Rules default to :data:`DEFAULT_SLO`; a partial ``slo`` dict
        overrides individual rules (unknown keys are a configuration
        error — same contract as :func:`load_slo`).
        """
        rules = dict(DEFAULT_SLO)
        if slo:
            unknown = sorted(set(slo) - set(DEFAULT_SLO))
            if unknown:
                raise ConfigurationError(
                    f"unknown SLO rule(s) {unknown}; "
                    f"known: {sorted(DEFAULT_SLO)}")
            rules.update(slo)
        r = self.rollups()
        measured = {
            "goodput": r["goodput"],
            "lease_breaks": r["lease_breaks"],
            "retry_rate": r["retry_rate"],
        }
        violations = []
        if measured["retry_rate"] > rules["max_retry_rate"]:
            violations.append(
                f"retry_rate {measured['retry_rate']:.3f} > "
                f"max_retry_rate {rules['max_retry_rate']}")
        if measured["lease_breaks"] > rules["max_lease_breaks"]:
            violations.append(
                f"lease_breaks {measured['lease_breaks']} > "
                f"max_lease_breaks {rules['max_lease_breaks']}")
        if measured["goodput"] < rules["min_goodput"]:
            violations.append(
                f"goodput {measured['goodput']:.3f} < "
                f"min_goodput {rules['min_goodput']}")
        return {
            "measured": measured,
            "ok": not violations,
            "rules": dict(sorted(rules.items())),
            "violations": violations,
        }

    # -- the health console -------------------------------------------

    def top(self) -> str:
        """The ``repro service top`` rendering: a point-in-time fleet,
        queue and worker table from spools + journal — no running
        fleet required."""
        r = self.rollups()
        claims = self.queue.active_claims()
        lines = [f"service {self.queue.root}"]
        lines.append(
            f"queue: {r['submits']} submitted, {r['dones']} done, "
            f"{r['fails']} failed, depth now "
            f"{self.queue.depth()} (max {r['max_queue_depth']})")
        lines.append(
            f"health: goodput={r['goodput']:.2f} "
            f"retry_rate={r['retry_rate']:.2f} "
            f"retries={r['retries']} lease_breaks={r['lease_breaks']}")
        lines.append(f"{'job':<20} {'state':<9} {'kind':<11} "
                     f"{'attempts':<9} worker")
        for job_id in sorted(self._table):
            view = self._table[job_id]
            live = ""
            claim = claims.get(job_id)
            if claim:
                live = (f" [claim hb={claim.get('heartbeat', '?')}"
                        f" by {claim.get('worker', '?')}]")
            lines.append(f"{view.job_id:<20} {view.state.value:<9} "
                         f"{view.kind:<11} {view.attempts:<9} "
                         f"{view.worker}{live}")
        if not self._table:
            lines.append("(no jobs)")
        lines.append(f"telemetry: {r['telemetry']['spools']} spool(s), "
                     f"{r['telemetry']['torn_tails']} torn tail(s), "
                     f"{r['telemetry']['corrupt_lines']} corrupt line(s)")
        for worker in sorted(r["workers"]):
            w = r["workers"][worker]
            lines.append(
                f"  {worker:<18} records={w['records']} "
                f"events={w['events']} segments={w['segments']} "
                f"snapshots={w['snapshots']}"
                + (" TORN" if w["torn_tail"] else "")
                + (f" CORRUPT={w['corrupt_lines']}"
                   if w["corrupt_lines"] else ""))
        return "\n".join(lines)
