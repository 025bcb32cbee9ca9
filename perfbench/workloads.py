"""The three benchmark workloads.

Each workload has a set-up repetition (fixture build plus warm-up,
timed into ``setup_s``) and a timed pass.  A pass returns its wall and
CPU time and how many operations it attempted and failed; output
checks run after the timed region and count as failed operations when
they fail.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib
import shutil
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import fixture
from repro.engine import ExecutionEngine
from repro.obs.fleet import FleetAggregator
from repro.service import JobQueue, JobState, Worker, verify_service

DIGESTS = pathlib.Path(__file__).with_name("digests.json")


@dataclass
class Pass:
    """One timed pass: wall and CPU seconds, operations, and the
    workload's own timings."""

    wall: float
    cpu: float
    attempted: int
    failed: int
    timings: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)


class Clock:
    """Wall and process CPU time (all threads) of a block."""

    def __enter__(self) -> "Clock":
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._wall
        self.cpu = time.process_time() - self._cpu


def tree_digests(written: dict[str, list[str]]) -> dict[str, str]:
    """experiment id -> sha256 over the names and bytes of its files."""
    digests: dict[str, str] = {}
    for eid, paths in written.items():
        h = hashlib.sha256()
        for path in sorted(map(pathlib.Path, paths)):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        digests[eid] = h.hexdigest()
    return digests


def collect() -> None:
    """Between repetitions, so that no garbage from one is collected
    inside the next one's timed region."""
    gc.collect()


class Workload:
    name = ""

    def __init__(self, seed: int, work: pathlib.Path) -> None:
        self.seed = seed
        self.work = work
        #: Context manager factory entered around each timed region
        #: (the tracer's ``installed`` in traced passes); output checks
        #: stay outside it.
        self.timed = nullcontext

    def fresh_dir(self, name: str) -> pathlib.Path:
        """An empty ``work/name``.  Passes reuse the same paths, so the
        file system sees the same names every pass."""
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir()
        return path

    def setup(self) -> list[pathlib.Path]:
        """One set-up repetition: fixture build plus warm-up.  Returns
        the directories to delete once the repetition is timed."""
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def report(self, passes: list[Pass]) -> list[tuple[str, float, str]]:
        """The workload's own end-to-end numbers, for the text table."""
        raise NotImplementedError


class ArtefactsFull(Workload):
    """``repro export DIR --full``: all 13 registered experiments at
    paper scale, serial, no run cache."""

    name = "artefacts-full"

    def __init__(self, seed: int, work: pathlib.Path) -> None:
        super().__init__(seed, work)
        recorded = json.loads(DIGESTS.read_text())
        #: The digests recorded for this seed, when there are any.
        self.expected = recorded.get(str(seed))
        #: The warm-up export's digests: every later one must match.
        self.first: dict | None = None

    def _export(self) -> tuple[Clock, dict, pathlib.Path]:
        out = self.fresh_dir("export")
        with self.timed(), Clock() as clock:
            written = ExecutionEngine().export_experiments(
                out, fast=False, seed=self.seed)
        return clock, tree_digests(written), out

    def setup(self) -> list[pathlib.Path]:
        _, digests, out = self._export()
        if self.first is None:
            self.first = digests
        return [out]

    def run_pass(self) -> Pass:
        clock, digests, out = self._export()
        shutil.rmtree(out)
        expected = self.expected or self.first
        failed = sum(1 for eid in expected
                     if digests.get(eid) != expected[eid]
                     or digests.get(eid) != self.first.get(eid))
        return Pass(clock.wall, clock.cpu, len(expected), failed)

    def report(self, passes):
        return [("regen_s", statistics.median(p.wall for p in passes), "s")]


class ServiceDrain(Workload):
    """One client submits K run jobs, then one in-process worker drains
    them: a closed loop, one batch, then wait for the drain."""

    name = "service-drain"
    K = 300

    def __init__(self, seed: int, work: pathlib.Path) -> None:
        super().__init__(seed, work)
        self.jobs = fixture.job_specs(seed, self.K)
        #: results.json bytes of a serial, uncached run, per job spec.
        self.expected: dict[str, bytes] = {}

    def _drain(self, jobspecs) -> tuple[Clock, JobQueue, list, float]:
        # Not durable: the service directory lives on the checkout's
        # disk, where fsync latency is the neighbours' noise, not ours.
        queue = JobQueue(self.fresh_dir("service"), durable=False)
        submit_s = []
        with self.timed(), Clock() as clock:
            for jobspec in jobspecs:
                start = time.perf_counter()
                queue.submit(jobspec)
                submit_s.append(time.perf_counter() - start)
            worker = Worker(queue, worker_id=fixture.WORKER_ID, drain=True)
            start = time.perf_counter()
            worker.run()
            drain_s = time.perf_counter() - start
        return clock, queue, submit_s, drain_s

    def setup(self) -> list[pathlib.Path]:
        _, queue, _, _ = self._drain(fixture.warmup_specs())
        return [queue.root]

    def run_pass(self) -> Pass:
        clock, queue, submit_s, drain_s = self._drain(self.jobs)
        failed = self._check(queue)
        shutil.rmtree(queue.root)
        return Pass(clock.wall, clock.cpu, self.K + 1, failed,
                    {"drain_s": drain_s},
                    {"submit_ms": [s * 1e3 for s in submit_s]})

    def _check(self, queue: JobQueue) -> int:
        """Jobs missing, not DONE, or whose results differ from a
        serial uncached run; plus one when verify is not clean."""
        failed = 0 if verify_service(queue.root)["clean"] else 1
        table = queue.table()
        for job_id, view in table.items():
            jobspec = queue.jobspec(job_id)
            key = jobspec.canonical_json()
            if key not in self.expected:
                results = ExecutionEngine().run_specs(list(jobspec.specs))
                self.expected[key] = fixture.results_bytes(jobspec, results)
            published = queue.result_dir(job_id) / "results.json"
            if view.state is not JobState.DONE or not published.is_file() \
                    or published.read_bytes() != self.expected[key]:
                failed += 1
        return failed + self.K - len(table)

    def report(self, passes):
        drain = statistics.median(p.timings["drain_s"] for p in passes)
        submits = [s for p in passes for s in p.samples["submit_ms"]]
        cuts = statistics.quantiles(submits, n=100)
        above = sum(1 for s in submits if s > cuts[94])
        return [("drain_jobs_per_s", self.K / drain, "jobs/s"),
                ("submit_p50_ms", cuts[49], "ms"),
                ("submit_p95_ms", cuts[94],
                 f"ms ({len(submits)} samples, {above} above p95)")]


class JournalOps(Workload):
    """Operator commands over a finished service directory of 10^4
    journal records: status, verify, report.  Read-only."""

    name = "journal-ops"
    JOBS = 2500  # four records each: submit, claim, run, done

    def __init__(self, seed: int, work: pathlib.Path) -> None:
        super().__init__(seed, work)
        self.jobs = fixture.job_specs(seed, self.JOBS)
        self.root: pathlib.Path | None = None
        self.first_report: str | None = None

    def setup(self) -> list[pathlib.Path]:
        root = self.fresh_dir("journal" if self.root is None
                              else "journal-extra")
        fixture.build_drained_dir(root, self.jobs)
        self._ops(root)
        if self.root is None:
            self.root = root
            return []
        return [root]

    def run_pass(self) -> Pass:
        return self._ops(self.root)

    def _ops(self, root: pathlib.Path) -> Pass:
        with self.timed(), Clock() as clock:
            t0 = time.perf_counter()
            table = JobQueue(root, create=False).table()
            t1 = time.perf_counter()
            verify = verify_service(root)
            t2 = time.perf_counter()
            fleet = FleetAggregator.from_service_dir(root)
            report = fleet.report_json()
            fleet.prometheus()
            fleet.chrome()
            fleet.rollups()
            t3 = time.perf_counter()
        if self.first_report is None:
            self.first_report = report
        failed = int(len(table) != self.JOBS or any(
            v.state is not JobState.DONE for v in table.values()))
        failed += int(not verify["clean"])
        failed += int(json.loads(report)["totals"]["by_state"]
                      != {"done": self.JOBS}
                      or report != self.first_report)
        return Pass(clock.wall, clock.cpu, 3, failed,
                    {"status_ms": (t1 - t0) * 1e3, "verify_s": t2 - t1,
                     "report_s": t3 - t2})

    def report(self, passes):
        return [(name, statistics.median(p.timings[name] for p in passes),
                 unit) for name, unit in (("status_ms", "ms"),
                                          ("verify_s", "s"),
                                          ("report_s", "s"))]


WORKLOADS = {w.name: w for w in (ArtefactsFull, ServiceDrain, JournalOps)}
