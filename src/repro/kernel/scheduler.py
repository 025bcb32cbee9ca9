"""CPU scheduling models.

Two schedulers are implemented:

* :class:`CfsScheduler` — a weighted-fair model of Linux CFS with the
  periodic tick and the ``nohz_full`` adaptive-tick mode used on both
  platforms' application cores (Table 1);
* :class:`CooperativeScheduler` — McKernel's "simple round-robin
  co-operative (tick-less) scheduler" (§5): no preemption, no tick, a
  task runs until it yields.

The schedulers serve two purposes: a functional one for the DES-level
examples (pick next task, account runtime) and an analytic one for the
noise layer (does this core take timer interrupts?).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigurationError
from ..obs.tracer import get_tracer


@dataclass
class SchedTask:
    """A schedulable entity (thread)."""

    task_id: int
    name: str = ""
    weight: float = 1.0  # CFS nice-level weight
    runtime: float = 0.0  # accumulated CPU seconds
    vruntime: float = 0.0  # weighted runtime (CFS pick key)

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError("weight must be positive")


class CfsScheduler:
    """Completely-Fair-Scheduler model for one logical CPU.

    ``nohz_full`` semantics follow the kernel: the tick is suppressed on
    a core only while it is in adaptive-tick mode AND has at most one
    runnable task; a second runnable task re-enables the tick (and its
    noise).  This is why cgroup isolation *and* nohz_full are both
    needed on Fugaku.
    """

    def __init__(self, cpu_id: int, nohz_full: bool = False,
                 tick_hz: float = 100.0) -> None:
        if tick_hz <= 0:
            raise ConfigurationError("tick_hz must be positive")
        self.cpu_id = cpu_id
        self.nohz_full = nohz_full
        self.tick_hz = tick_hz
        self.runqueue: dict[int, SchedTask] = {}

    # -- run queue ----------------------------------------------------

    def enqueue(self, task: SchedTask) -> None:
        if task.task_id in self.runqueue:
            raise ConfigurationError(f"task {task.task_id} already enqueued")
        # New tasks start at the max vruntime so they don't starve others.
        if self.runqueue:
            task.vruntime = max(t.vruntime for t in self.runqueue.values())
        self.runqueue[task.task_id] = task

    def dequeue(self, task_id: int) -> SchedTask:
        try:
            task = self.runqueue.pop(task_id)
        except KeyError:
            raise ConfigurationError(f"task {task_id} not on runqueue") from None
        return task

    def pick_next(self) -> Optional[SchedTask]:
        """Task with the smallest vruntime (ties by id for determinism)."""
        if not self.runqueue:
            return None
        return min(self.runqueue.values(), key=lambda t: (t.vruntime, t.task_id))

    def account(self, task_id: int, delta: float) -> None:
        """Charge ``delta`` seconds of CPU to a task."""
        if delta < 0:
            raise ConfigurationError("delta must be non-negative")
        task = self.runqueue.get(task_id)
        if task is None:
            raise ConfigurationError(f"task {task_id} not on runqueue")
        task.runtime += delta
        task.vruntime += delta / task.weight

    def run_slice(self, horizon: float, slice_len: float = 0.004) -> dict[int, float]:
        """Advance the queue ``horizon`` seconds in ``slice_len`` quanta,
        always running the fair pick.  Returns per-task CPU time — over a
        long horizon this converges to the weight shares, which the CFS
        tests assert.

        Consecutive quanta of the same pick are charged in one batched
        :meth:`account` call: the pick keeps the CPU until its vruntime
        overtakes the runner-up's, so the retention length is known up
        front (``1 + floor(gap * weight / slice_len)`` quanta) and the
        per-quantum pick/account/trace loop collapses to one iteration
        per context switch — a lone task consumes the whole horizon in a
        single call.  The emitted sched_switch spans are the coalesced
        per-stretch spans the historical loop produced.
        """
        if horizon <= 0 or slice_len <= 0:
            raise ConfigurationError("horizon and slice_len must be positive")
        got: dict[int, float] = {tid: 0.0 for tid in self.runqueue}
        tracer = get_tracer()
        t = 0.0
        # For the unified trace, contiguous quanta of one task coalesce
        # into a single sched_switch span (what ftrace would show).
        span_task: Optional[SchedTask] = None
        span_start = 0.0
        while t < horizon and self.runqueue:
            task = self.pick_next()
            assert task is not None
            if tracer is not None and task is not span_task:
                if span_task is not None:
                    tracer.span("kernel", "sched_switch", ts=span_start,
                                duration=t - span_start,
                                actor=span_task.name or f"task{span_task.task_id}",
                                cpu=self.cpu_id)
                span_task, span_start = task, t
            remaining = horizon - t
            if len(self.runqueue) == 1:
                run = remaining
            else:
                nxt = min(
                    (o for o in self.runqueue.values() if o is not task),
                    key=lambda o: (o.vruntime, o.task_id))
                gap = nxt.vruntime - task.vruntime
                k = 1 + int(gap * task.weight / slice_len) if gap > 0 else 1
                run = min(k * slice_len, remaining)
            self.account(task.task_id, run)
            got[task.task_id] += run
            t += run
        if tracer is not None and span_task is not None:
            tracer.span("kernel", "sched_switch", ts=span_start,
                        duration=t - span_start,
                        actor=span_task.name or f"task{span_task.task_id}",
                        cpu=self.cpu_id)
        return got

    # -- tick behaviour (noise-relevant) -----------------------------------

    def tick_active(self) -> bool:
        """Does this core currently take periodic timer interrupts?"""
        if not self.nohz_full:
            return True
        return len(self.runqueue) > 1

    def tick_rate(self) -> float:
        """Timer interrupts per second on this core right now."""
        return self.tick_hz if self.tick_active() else 0.0


class CooperativeScheduler:
    """McKernel's tick-less cooperative round-robin (§5).

    No timer interrupts ever; tasks run in FIFO rotation and only switch
    on explicit :meth:`yield_cpu`.  The normal HPC configuration is one
    compute thread per core, in which case the scheduler is pure
    bookkeeping — exactly why the LWK generates no scheduler noise.
    """

    def __init__(self, cpu_id: int) -> None:
        self.cpu_id = cpu_id
        self._ring: list[SchedTask] = []
        self._current = 0

    def enqueue(self, task: SchedTask) -> None:
        if any(t.task_id == task.task_id for t in self._ring):
            raise ConfigurationError(f"task {task.task_id} already enqueued")
        self._ring.append(task)

    def dequeue(self, task_id: int) -> SchedTask:
        for i, t in enumerate(self._ring):
            if t.task_id == task_id:
                del self._ring[i]
                if self._current >= len(self._ring):
                    self._current = 0
                return t
        raise ConfigurationError(f"task {task_id} not on runqueue")

    @property
    def current(self) -> Optional[SchedTask]:
        return self._ring[self._current] if self._ring else None

    def yield_cpu(self) -> Optional[SchedTask]:
        """Current task yields; returns the next task (round robin)."""
        if not self._ring:
            return None
        self._current = (self._current + 1) % len(self._ring)
        return self._ring[self._current]

    def account(self, delta: float) -> None:
        if delta < 0:
            raise ConfigurationError("delta must be non-negative")
        if self.current is not None:
            self.current.runtime += delta

    def tick_active(self) -> bool:
        """LWK never ticks."""
        return False

    def tick_rate(self) -> float:
        return 0.0
