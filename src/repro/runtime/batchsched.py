"""Batch job scheduling: the TCS job-operation layer over the DES.

Both machines run their comparisons through a batch system (§6.4: "we
run the measurements through the batch job system"), and the OS choice
has an *operational* cost the paper notes in §5.1: on OFP "booting
IHK/McKernel entails nothing more than calling a few privileged mode
scripts in the prologue and epilogue of a particular job" — i.e. every
McKernel job pays a per-job boot in its prologue that Linux jobs do
not.  This module implements a FIFO + EASY-backfill scheduler so that
cost (and queueing in general) can be studied:

* jobs declare node count and a user runtime estimate;
* the head of the queue never starves (EASY: a reservation is computed
  for it from running jobs' estimates);
* later jobs may backfill into idle nodes if they cannot delay the
  reservation;
* McKernel jobs add prologue/epilogue time around their payload.

With a :class:`~repro.faults.FaultSpec` attached the scheduler also
models the unhappy path — the canonical fault-tolerant HPC job state
machine (RUNNING → failure → RESTARTING with bounded retries, the
Balsam RUN_ERROR/RESTART_READY cycle): node failures and OOM kills
abort the attempt, the job backs off exponentially and re-enters the
queue, optionally resuming from its last periodic checkpoint, and
after ``max_retries`` failed attempts it lands in the terminal FAILED
state.  Fault draws are seeded per (job, attempt), so a given
``(FaultSpec, submission sequence)`` replays identically.  Without a
fault spec every code path is byte-identical to the happy-path-only
scheduler.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..errors import (
    CgroupLimitExceeded,
    ConfigurationError,
    NodeFailure,
    ProxyCrashed,
)
from ..faults.injector import FaultEvent, FaultInjector
from ..faults.spec import FaultSpec
from ..faults.tolerance import CheckpointPolicy, RetryPolicy
from ..obs.metrics import get_metrics
from ..obs.tracer import get_tracer
from ..sim.engine import Engine, Event


class OsChoice(enum.Enum):
    """Which kernel personality a job requests."""

    LINUX = "linux"
    MCKERNEL = "mckernel"


#: Per-job LWK boot/teardown in the batch prologue/epilogue, seconds.
MCKERNEL_PROLOGUE = 45.0
MCKERNEL_EPILOGUE = 15.0


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    #: Attempt aborted by a fault; backing off before re-queueing.
    RESTARTING = "restarting"
    DONE = "done"
    #: Terminal: retry budget exhausted.
    FAILED = "failed"


@dataclass
class BatchJob:
    """One submission tracked by the scheduler."""

    name: str
    n_nodes: int
    runtime: float            # actual payload runtime
    estimate: float           # user's estimate (>= runtime not required)
    os_choice: OsChoice = OsChoice.LINUX
    submit_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    state: JobState = JobState.QUEUED
    # -- fault-tolerance bookkeeping (all zero without injection) ------
    #: Failed attempts so far.
    attempts: int = 0
    #: Payload seconds preserved by checkpointing across restarts.
    progress_done: float = 0.0
    #: Payload seconds computed but thrown away by failures.
    lost_time: float = 0.0
    #: Walltime added by daemon stalls (Linux jobs).
    stall_time: float = 0.0
    #: Walltime spent writing checkpoints.
    checkpoint_time: float = 0.0
    #: (sim time, fault kind value) per aborted attempt.
    fault_log: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ConfigurationError("n_nodes must be positive")
        if self.runtime <= 0 or self.estimate <= 0:
            raise ConfigurationError("runtimes must be positive")

    @property
    def overhead(self) -> float:
        """Prologue + epilogue around the payload."""
        if self.os_choice is OsChoice.MCKERNEL:
            return MCKERNEL_PROLOGUE + MCKERNEL_EPILOGUE
        return 0.0

    @property
    def prologue(self) -> float:
        if self.os_choice is OsChoice.MCKERNEL:
            return MCKERNEL_PROLOGUE
        return 0.0

    @property
    def wall_occupancy(self) -> float:
        return self.runtime + self.overhead

    @property
    def estimated_occupancy(self) -> float:
        return self.estimate + self.overhead

    @property
    def wait_time(self) -> float:
        if self.start_time is None:
            raise ConfigurationError(f"job {self.name} has not started")
        return self.start_time - self.submit_time


@dataclass(frozen=True)
class _AttemptPlan:
    """Everything sampled up-front for one execution attempt."""

    occupancy: float                 # walltime if the attempt survives
    checkpoint_overhead: float
    stall_time: float
    fatal: Optional[FaultEvent]      # earliest job-killing event, if any


class BatchScheduler:
    """FIFO + EASY backfill over one machine's node pool.

    ``faults`` (a :class:`~repro.faults.FaultSpec`) enables
    injection + tolerance; ``None`` or an inactive spec keeps the
    scheduler on the exact happy-path-only code path.
    """

    def __init__(self, engine: Engine, total_nodes: int,
                 faults: Optional[FaultSpec] = None) -> None:
        if total_nodes <= 0:
            raise ConfigurationError("total_nodes must be positive")
        self.engine = engine
        self.total_nodes = total_nodes
        self.free_nodes = total_nodes
        self.queue: list[BatchJob] = []
        self.running: list[BatchJob] = []
        self.finished: list[BatchJob] = []
        #: Terminal failures (retry budget exhausted).
        self.failed: list[BatchJob] = []
        self.faults = faults
        self.injector: Optional[FaultInjector] = None
        self.retry = RetryPolicy()
        self.checkpoint = CheckpointPolicy()
        if faults is not None and faults.active:
            self.injector = FaultInjector(faults)
            self.retry = RetryPolicy.from_spec(faults)
            self.checkpoint = CheckpointPolicy.from_spec(faults)

    # -- submission --------------------------------------------------------

    def submit(self, job: BatchJob) -> BatchJob:
        if job.n_nodes > self.total_nodes:
            raise ConfigurationError(
                f"job {job.name} wants {job.n_nodes} nodes, machine has "
                f"{self.total_nodes}"
            )
        job.submit_time = self.engine.now
        self.queue.append(job)
        t = get_tracer()
        if t is not None:
            t.event("sched", "submit", ts=self.engine.now, actor=job.name,
                    nodes=job.n_nodes, os=job.os_choice.value)
        self._schedule()
        return job

    # -- internals -------------------------------------------------------------

    def _start(self, job: BatchJob) -> None:
        self.queue.remove(job)
        self.free_nodes -= job.n_nodes
        self.running.append(job)
        job.state = JobState.RUNNING
        if job.start_time is None:
            job.start_time = self.engine.now
        attempt_started = self.engine.now
        plan = self._plan_attempt(job)

        def run():
            if plan is None:
                # Fault-free path: identical to the happy-path scheduler.
                yield self.engine.timeout(job.wall_occupancy)
                self._trace_attempt(job, attempt_started, "done")
                self._complete(job)
                return
            if plan.fatal is None:
                yield self.engine.timeout(plan.occupancy)
                job.checkpoint_time += plan.checkpoint_overhead
                job.stall_time += plan.stall_time
                self._trace_attempt(job, attempt_started, "done")
                self._complete(job)
                return
            yield self.engine.timeout(plan.fatal.time)
            # The fault manifests as the same exception the live
            # component would raise (an injected OOM *is* the memcg
            # limit firing) and the scheduler's tolerance machinery is
            # the handler.
            try:
                raise plan.fatal.exception()
            except (NodeFailure, CgroupLimitExceeded, ProxyCrashed):
                self._trace_attempt(job, attempt_started,
                                    plan.fatal.kind.value)
                self._abort_attempt(job, plan)

        self.engine.process(run(), name=f"job/{job.name}/a{job.attempts}")

    def _trace_attempt(self, job: BatchJob, started: float,
                       outcome: str) -> None:
        """One attempt span on the sched track; a failed attempt also
        drops the manifested fault on the faults track."""
        t = get_tracer()
        if t is None:
            return
        t.span("sched", f"{job.name}/attempt{job.attempts}", ts=started,
               duration=self.engine.now - started, actor=job.name,
               outcome=outcome, nodes=job.n_nodes)
        if outcome != "done":
            t.event("faults", outcome, ts=self.engine.now, actor=job.name,
                    attempt=job.attempts)

    def _plan_attempt(self, job: BatchJob) -> Optional[_AttemptPlan]:
        """Sample this attempt's fault schedule; None = no injection."""
        if self.injector is None:
            return None
        remaining = max(0.0, job.runtime - job.progress_done)
        ckpt = self.checkpoint.overhead(remaining)
        base_window = job.overhead + remaining + ckpt
        schedule = self.injector.schedule(
            job.n_nodes, base_window,
            stream=f"job/{job.name}/attempt{job.attempts}")
        os_kind = job.os_choice.value
        fatal = schedule.first_fatal(os_kind)
        stall = schedule.stall_time(
            self.faults, os_kind,
            before=fatal.time if fatal is not None else None)
        return _AttemptPlan(
            occupancy=base_window + stall,
            checkpoint_overhead=ckpt,
            stall_time=stall,
            fatal=fatal,
        )

    def _complete(self, job: BatchJob) -> None:
        job.state = JobState.DONE
        job.end_time = self.engine.now
        self.running.remove(job)
        self.finished.append(job)
        self.free_nodes += job.n_nodes
        get_metrics().counter("sched.jobs_done",
                              kernel=job.os_choice.value).inc()
        self._schedule()

    def _abort_attempt(self, job: BatchJob, plan: _AttemptPlan) -> None:
        """RUNNING → RESTARTING (or FAILED): free nodes, account lost
        work, back off, re-queue — the bounded-retry state machine."""
        assert plan.fatal is not None
        job.fault_log.append((self.engine.now, plan.fatal.kind.value))
        self.running.remove(job)
        self.free_nodes += job.n_nodes
        # Payload progress at the failure point: strip the prologue,
        # then scale by the payload share of the productive window
        # (payload + checkpoint writes interleave uniformly).
        remaining = max(0.0, job.runtime - job.progress_done)
        productive = remaining + plan.checkpoint_overhead
        elapsed_productive = max(0.0, plan.fatal.time - job.prologue)
        if productive > 0:
            progress = min(remaining,
                           elapsed_productive * remaining / productive)
        else:
            progress = 0.0
        total = job.progress_done + progress
        resume_from = self.checkpoint.restart_point(total)
        job.lost_time += total - resume_from
        job.progress_done = resume_from
        job.attempts += 1
        metrics = get_metrics()
        metrics.counter("sched.attempts_aborted",
                        kernel=job.os_choice.value).inc()
        if self.retry.exhausted(job.attempts):
            job.state = JobState.FAILED
            job.end_time = self.engine.now
            self.failed.append(job)
            metrics.counter("sched.jobs_failed",
                            kernel=job.os_choice.value).inc()
            t = get_tracer()
            if t is not None:
                t.event("sched", "failed", ts=self.engine.now,
                        actor=job.name, attempts=job.attempts)
            self._schedule()
            return
        job.state = JobState.RESTARTING
        delay = self.retry.delay(job.attempts)

        def requeue():
            yield self.engine.timeout(delay)
            job.state = JobState.QUEUED
            self.queue.append(job)
            self._schedule()

        self.engine.process(requeue(),
                            name=f"job/{job.name}/backoff{job.attempts}")
        # The freed nodes may unblock other queued work immediately.
        self._schedule()

    def _head_reservation(self) -> tuple[float, int]:
        """(shadow_time, spare_nodes) for the EASY reservation of the
        queue head: the earliest time enough nodes free up (by running
        jobs' estimates), and the nodes idle even then."""
        head = self.queue[0]
        if head.n_nodes <= self.free_nodes:
            return self.engine.now, self.free_nodes - head.n_nodes
        # Sort running jobs by estimated completion.
        events = sorted(
            (r.start_time + r.estimated_occupancy, r.n_nodes)
            for r in self.running
        )
        free = self.free_nodes
        for end_at, nodes in events:
            free += nodes
            if free >= head.n_nodes:
                return end_at, free - head.n_nodes
        raise ConfigurationError(
            "reservation impossible: not enough nodes even when idle"
        )

    def _schedule(self) -> None:
        # Start queue heads FIFO while they fit.
        while self.queue and self.queue[0].n_nodes <= self.free_nodes:
            self._start(self.queue[0])
        if not self.queue:
            return
        # EASY backfill behind the blocked head.
        shadow_time, spare = self._head_reservation()
        for job in list(self.queue[1:]):
            if job.n_nodes > self.free_nodes:
                continue
            ends_by = self.engine.now + job.estimated_occupancy
            fits_before_shadow = ends_by <= shadow_time
            fits_in_spare = job.n_nodes <= spare
            if fits_before_shadow or fits_in_spare:
                if fits_in_spare and not fits_before_shadow:
                    spare -= job.n_nodes
                self._start(job)

    # -- metrics ------------------------------------------------------------------

    def utilization(self, horizon: float) -> float:
        """Node-seconds used / offered over [0, horizon]."""
        if horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        used = 0.0
        for job in self.finished + self.running:
            start = job.start_time or 0.0
            end = job.end_time if job.end_time is not None else horizon
            used += max(0.0, min(end, horizon) - start) * job.n_nodes
        return used / (self.total_nodes * horizon)

    def mean_wait(self) -> float:
        done = [j for j in self.finished if j.start_time is not None]
        if not done:
            return 0.0
        return sum(j.wait_time for j in done) / len(done)

    # -- fault metrics -----------------------------------------------------

    def success_rate(self) -> float:
        """Completed / terminal jobs (1.0 while nothing has failed)."""
        terminal = len(self.finished) + len(self.failed)
        if terminal == 0:
            return 1.0
        return len(self.finished) / terminal

    def effective_utilization(self, horizon: float) -> float:
        """Goodput: *useful* payload node-seconds of completed jobs
        over the machine's offered capacity.  Prologues, checkpoint
        writes, daemon stalls and every aborted attempt count as zero
        — the metric the checkpoint-cost/lost-work tradeoff moves."""
        if horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        useful = sum(j.runtime * j.n_nodes for j in self.finished)
        return useful / (self.total_nodes * horizon)

    def fault_report(self) -> dict:
        """Per-run tolerance accounting (the checkpoint-vs-lost-work
        tradeoff, reported per scheduler run)."""
        jobs = self.finished + self.failed + self.running + self.queue
        by_kind: dict[str, int] = {}
        for job in jobs:
            for _, kind in job.fault_log:
                by_kind[kind] = by_kind.get(kind, 0) + 1
        return {
            "jobs_done": len(self.finished),
            "jobs_failed": len(self.failed),
            "success_rate": self.success_rate(),
            "faults_by_kind": dict(sorted(by_kind.items())),
            "retries": sum(j.attempts for j in jobs),
            "lost_payload_seconds": sum(j.lost_time for j in jobs),
            "checkpoint_seconds": sum(j.checkpoint_time for j in jobs),
            "stall_seconds": sum(j.stall_time for j in jobs),
        }
