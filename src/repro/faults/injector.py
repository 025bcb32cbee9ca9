"""Deterministic, RNG-seeded fault injection.

A :class:`FaultInjector` turns a :class:`~repro.faults.spec.FaultSpec`
into concrete :class:`FaultEvent` schedules.  Every stochastic draw
comes from a named stream seeded by ``(spec.seed, fnv1a(stream))`` —
the same scheme the noise subsystem uses — so a given
``(FaultSpec, stream name)`` pair always produces the identical fault
schedule, on any process, in any execution order.  That is what makes
fault scenarios cache-keyable and lets the fault-sensitivity
experiment produce byte-identical output across ``--jobs 1`` and
``--jobs N``.

Fault sources are Poisson processes whose aggregate rate scales with
``n_nodes`` (exposure grows with job size × walltime, the real-world
reliability budget): node failures at ``n / MTBF`` per hour, OOM
kills, proxy crashes and daemon stalls at their per-node-hour rates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from ..errors import (
    CgroupLimitExceeded,
    ConfigurationError,
    FaultError,
    NodeFailure,
    ProxyCrashed,
)
from ..obs.metrics import get_metrics
from ..obs.tracer import get_tracer
from ..sim.rng import fnv1a_64
from .spec import FaultSpec

SECONDS_PER_HOUR = 3600.0


class FaultKind(enum.Enum):
    """What broke."""

    NODE_FAILURE = "node_failure"
    OOM_KILL = "oom_kill"
    PROXY_CRASH = "proxy_crash"
    DAEMON_STALL = "daemon_stall"

    @property
    def fatal(self) -> bool:
        """Does this fault kill the job (vs. merely slowing it)?"""
        return self is not FaultKind.DAEMON_STALL


#: Fault kinds that can hit a job under each kernel personality: proxy
#: crashes only exist for McKernel jobs (the Linux-side twin), daemon
#: stalls only for Linux jobs (the LWK runs no daemons, §2).
KINDS_BY_OS = {
    "linux": (FaultKind.NODE_FAILURE, FaultKind.OOM_KILL,
              FaultKind.DAEMON_STALL),
    "mckernel": (FaultKind.NODE_FAILURE, FaultKind.OOM_KILL,
                 FaultKind.PROXY_CRASH),
}


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: when, what, and where."""

    time: float          # seconds into the window it was sampled over
    kind: FaultKind
    node: int = 0        # node index within the job

    def exception(self) -> FaultError | CgroupLimitExceeded:
        """The exception this event manifests as (fatal kinds only)."""
        if self.kind is FaultKind.NODE_FAILURE:
            return NodeFailure(
                f"node {self.node} failed at t={self.time:.1f}s",
                node=self.node, at=self.time)
        if self.kind is FaultKind.OOM_KILL:
            # The existing cgroup limit exception: an injected OOM is
            # indistinguishable from the memcg killing the job.
            return CgroupLimitExceeded(
                f"cgroup OOM kill on node {self.node} "
                f"at t={self.time:.1f}s")
        if self.kind is FaultKind.PROXY_CRASH:
            return ProxyCrashed(
                f"proxy process on node {self.node} crashed "
                f"at t={self.time:.1f}s")
        raise ConfigurationError(
            f"{self.kind.value} is not a fatal fault")


@dataclass
class FaultSchedule:
    """All faults sampled for one exposure window, time-ordered."""

    window: float
    events: list[FaultEvent] = field(default_factory=list)

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def first_fatal(self, os_kind: str = "linux") -> Optional[FaultEvent]:
        """Earliest job-killing event applicable to ``os_kind``."""
        kinds = _kinds_for(os_kind)
        for ev in self.events:
            if ev.kind.fatal and ev.kind in kinds:
                return ev
        return None

    def stall_time(self, spec: FaultSpec, os_kind: str = "linux",
                   before: Optional[float] = None) -> float:
        """Total daemon-stall walltime added (Linux jobs), counting
        only stalls before ``before`` (e.g. the first fatal event)."""
        if FaultKind.DAEMON_STALL not in _kinds_for(os_kind):
            return 0.0
        total = 0.0
        for ev in self.events:
            if ev.kind is FaultKind.DAEMON_STALL and (
                    before is None or ev.time < before):
                total += spec.daemon_stall_seconds
        return total

    def count(self, kind: FaultKind) -> int:
        return sum(1 for ev in self.events if ev.kind is kind)


def _kinds_for(os_kind: str) -> tuple[FaultKind, ...]:
    try:
        return KINDS_BY_OS[os_kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown os kind {os_kind!r} "
            f"(known: {sorted(KINDS_BY_OS)})") from None


class FaultInjector:
    """Samples deterministic fault schedules from a :class:`FaultSpec`.

    One injector may serve many jobs/attempts; callers keep draws
    independent by naming a distinct ``stream`` per (job, attempt).
    """

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec

    def rng(self, stream: str) -> np.random.Generator:
        """The named fault stream (same name ⇒ same draws, always)."""
        ss = np.random.SeedSequence([self.spec.seed & 0xFFFFFFFFFFFFFFFF,
                                     fnv1a_64(f"faults/{stream}")])
        return np.random.Generator(np.random.PCG64(ss))

    # -- sampling ------------------------------------------------------

    def _rates_per_second(self, n_nodes: int) -> dict[FaultKind, float]:
        s = self.spec
        rates = {}
        if s.node_mtbf_hours > 0:
            rates[FaultKind.NODE_FAILURE] = (
                n_nodes / s.node_mtbf_hours / SECONDS_PER_HOUR)
        if s.oom_per_node_hour > 0:
            rates[FaultKind.OOM_KILL] = (
                n_nodes * s.oom_per_node_hour / SECONDS_PER_HOUR)
        if s.proxy_crash_per_node_hour > 0:
            rates[FaultKind.PROXY_CRASH] = (
                n_nodes * s.proxy_crash_per_node_hour / SECONDS_PER_HOUR)
        if s.daemon_stall_per_node_hour > 0:
            rates[FaultKind.DAEMON_STALL] = (
                n_nodes * s.daemon_stall_per_node_hour / SECONDS_PER_HOUR)
        return rates

    def schedule(self, n_nodes: int, window: float,
                 stream: str) -> FaultSchedule:
        """Sample every fault hitting an ``n_nodes``-node job over
        ``window`` seconds of exposure.

        Each source is an independent Poisson process (exponential
        interarrivals); the merged schedule is time-sorted.  Identical
        ``(spec, n_nodes, window, stream)`` ⇒ identical schedule.
        """
        if n_nodes <= 0:
            raise ConfigurationError("n_nodes must be positive")
        if window < 0:
            raise ConfigurationError("window must be non-negative")
        events: list[FaultEvent] = []
        if window > 0:
            # One sub-stream per kind: adding or removing one fault
            # source never perturbs the draws of another.
            for kind, rate in sorted(self._rates_per_second(n_nodes).items(),
                                     key=lambda kv: kv[0].value):
                rng = self.rng(f"{stream}/{kind.value}")
                t = 0.0
                while True:
                    t += float(rng.exponential(1.0 / rate))
                    if t >= window:
                        break
                    node = int(rng.integers(0, n_nodes))
                    events.append(FaultEvent(time=t, kind=kind, node=node))
        events.sort(key=lambda ev: (ev.time, ev.kind.value, ev.node))
        tracer = get_tracer()
        if tracer is not None and events:
            metrics = get_metrics()
            for ev in events:
                # Timestamps are window-relative (the attempt's own
                # clock); the scheduler separately marks the fault that
                # actually manifests at absolute simulation time.
                tracer.event("faults", f"injected/{ev.kind.value}",
                             ts=ev.time, actor=stream, node=ev.node)
                metrics.counter("faults.injected",
                                kind=ev.kind.value).inc()
        return FaultSchedule(window=window, events=events)

    def first_fatal(self, n_nodes: int, window: float, stream: str,
                    os_kind: str = "linux") -> Optional[FaultEvent]:
        """Convenience: earliest fatal event for one job attempt."""
        return self.schedule(n_nodes, window, stream).first_fatal(os_kind)
