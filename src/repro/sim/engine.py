"""Discrete-event simulation engine.

A deliberately small, dependency-free DES core in the style of SimPy:
*processes* are Python generators that ``yield`` requests to the engine
(currently: time delays and event waits), and the engine advances a
virtual clock through a binary-heap event queue.

The engine is used for node-level simulation — kernel task scheduling
and the batch scheduler's job lifecycles — where causal ordering
matters.  Large-scale statistics (Figure 4 at 158k nodes)
are produced by the vectorized samplers in :mod:`repro.noise.sampler`
instead, per the scale strategy in DESIGN.md.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import SimulationError

#: Type of the generators the engine runs.
ProcessGen = Generator[Any, Any, Any]


class Event:
    """A one-shot event that processes may wait on.

    Succeeding an event resumes all waiting processes at the current
    simulation time, passing them ``value``.
    """

    __slots__ = ("engine", "name", "_value", "_done", "_waiters", "callbacks")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._value: Any = None
        self._done = False
        self._waiters: list["Process"] = []
        #: Plain callables invoked (with the value) when the event fires.
        self.callbacks: list[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError(f"event {self.name!r} has not fired")
        return self._value

    def succeed(self, value: Any = None) -> None:
        if self._done:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._done = True
        self._value = value
        for cb in self.callbacks:
            cb(value)
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.engine._schedule(self.engine.now, proc, value)


class Timeout:
    """Yieldable: suspend the issuing process for ``delay`` seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        self.delay = delay


class Process:
    """A running generator plus bookkeeping.

    A process is itself waitable: other processes may ``yield proc.done``
    to join on its completion; ``done.value`` is the generator's return
    value.
    """

    __slots__ = ("engine", "gen", "name", "done", "alive")

    def __init__(self, engine: "Engine", gen: ProcessGen, name: str) -> None:
        self.engine = engine
        self.gen = gen
        self.name = name
        self.done = Event(engine, name=f"{name}.done")
        self.alive = True

    def _step(self, send_value: Any) -> None:
        if not self.alive:
            return
        try:
            request = self.gen.send(send_value)
        except StopIteration as stop:
            self.alive = False
            self.done.succeed(stop.value)
            return
        if isinstance(request, Timeout):
            self.engine._schedule(self.engine.now + request.delay, self, None)
        elif isinstance(request, Event):
            if request.triggered:
                self.engine._schedule(self.engine.now, self, request.value)
            else:
                request._waiters.append(self)
        elif isinstance(request, Process):
            # Sugar: yielding a process waits on its completion event.
            if request.done.triggered:
                self.engine._schedule(self.engine.now, self, request.done.value)
            else:
                request.done._waiters.append(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported request "
                f"{type(request).__name__}"
            )

    def interrupt(self) -> None:
        """Kill the process; it never resumes and its done event fires
        with ``None`` (if not already finished)."""
        if self.alive:
            self.alive = False
            self.gen.close()
            if not self.done.triggered:
                self.done.succeed(None)


class Resource:
    """A counted resource (semaphore) for DES processes.

    Models serialisation points like a device-driver lock: processes
    ``yield resource.acquire()`` and call :meth:`release` when done;
    waiters are served FIFO.  Used e.g. to express the Tofu driver's
    per-node registration lock that concurrent ranks contend on.
    """

    def __init__(self, engine: "Engine", capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        # FIFO grant queue; deque gives O(1) popleft where a list's
        # pop(0) is O(n) per grant under contention.
        self._waiters: deque[Event] = deque()
        #: Peak queue length observed (contention metric).
        self.max_queue = 0

    def acquire(self) -> Event:
        """Returns an event that fires when the resource is granted."""
        ev = self.engine.event(name=f"{self.name}.grant")
        if self.in_use < self.capacity:
            self.in_use += 1
            ev.succeed(self)
        else:
            self._waiters.append(ev)
            self.max_queue = max(self.max_queue, len(self._waiters))
        return ev

    def release(self) -> None:
        if self.in_use <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._waiters:
            ev = self._waiters.popleft()
            ev.succeed(self)  # hand over directly; in_use unchanged
        else:
            self.in_use -= 1

    @property
    def queued(self) -> int:
        return len(self._waiters)


class Engine:
    """The event loop.  Create one per simulated node (or per scenario)."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue: list[tuple[float, int, Process, Any]] = []
        self._counter = itertools.count()
        self._nprocs = 0

    # -- public API ---------------------------------------------------

    def process(self, gen: ProcessGen, name: str = "") -> Process:
        """Register a generator as a process starting at the current time."""
        proc = Process(self, gen, name or f"proc-{self._nprocs}")
        self._nprocs += 1
        self._schedule(self.now, proc, None)
        return proc

    def timeout(self, delay: float) -> Timeout:
        """Create a delay request for ``yield``."""
        return Timeout(delay)

    def event(self, name: str = "") -> Event:
        """Create a fresh waitable event."""
        return Event(self, name)

    def resource(self, capacity: int = 1, name: str = "resource") -> Resource:
        """Create a counted resource (semaphore)."""
        return Resource(self, capacity, name)

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Returns the final simulation time.  With ``until`` set, the clock
        is advanced exactly to ``until`` even if the last event fires
        earlier (matching SimPy semantics that make fixed-horizon runs
        comparable).
        """
        while self._queue:
            at, _, proc, value = self._queue[0]
            if until is not None and at > until:
                break
            heapq.heappop(self._queue)
            self.now = at
            proc._step(value)
        if until is not None and self.now < until:
            self.now = until
        return self.now

    def peek(self) -> Optional[float]:
        """Time of the next scheduled resume, or None if queue is empty."""
        return self._queue[0][0] if self._queue else None

    def all_of(self, events: Iterable[Event]) -> Event:
        """Event that fires once all ``events`` have fired (list of values)."""
        events = list(events)
        combined = self.event(name="all_of")
        remaining = len(events)
        if remaining == 0:
            combined.succeed([])
            return combined
        results: list[Any] = [None] * remaining

        def make_cb(i: int) -> Callable[[Any], None]:
            def cb(value: Any) -> None:
                nonlocal remaining
                results[i] = value
                remaining -= 1
                if remaining == 0:
                    combined.succeed(results)

            return cb

        for i, ev in enumerate(events):
            if ev.triggered:
                make_cb(i)(ev.value)
            else:
                ev.callbacks.append(make_cb(i))
        return combined

    # -- internals ------------------------------------------------------

    def _schedule(self, at: float, proc: Process, value: Any) -> None:
        if at < self.now - 1e-15:
            raise SimulationError(
                f"attempt to schedule in the past ({at} < {self.now})"
            )
        heapq.heappush(self._queue, (at, next(self._counter), proc, value))
