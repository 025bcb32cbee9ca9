"""FaultInjector: seeded determinism, node x walltime scaling, and the
OS-asymmetric fault exposure."""

import pytest

from repro.errors import (
    CgroupLimitExceeded,
    ConfigurationError,
    NodeFailure,
    ProxyCrashed,
)
from repro.faults import (
    FaultInjector,
    FaultKind,
    FaultSpec,
    KINDS_BY_OS,
)

RICH = FaultSpec(node_mtbf_hours=50.0, oom_per_node_hour=0.01,
                 proxy_crash_per_node_hour=0.01,
                 daemon_stall_per_node_hour=0.05, seed=1)


def test_same_seed_same_schedule():
    a = FaultInjector(RICH).schedule(64, 7200.0, stream="job/x/attempt0")
    b = FaultInjector(RICH).schedule(64, 7200.0, stream="job/x/attempt0")
    assert a.events == b.events
    assert len(a) > 0


def test_different_stream_different_schedule():
    inj = FaultInjector(RICH)
    a = inj.schedule(64, 7200.0, stream="job/x/attempt0")
    b = inj.schedule(64, 7200.0, stream="job/x/attempt1")
    assert a.events != b.events


def test_different_seed_different_schedule():
    a = FaultInjector(RICH).schedule(64, 7200.0, stream="s")
    b = FaultInjector(RICH.with_(seed=2)).schedule(64, 7200.0, stream="s")
    assert a.events != b.events


def test_adding_a_source_never_perturbs_others():
    """Per-kind sub-streams: switching OOM injection on must not move a
    single node-failure event."""
    base = FaultSpec(node_mtbf_hours=50.0, seed=1)
    with_oom = base.with_(oom_per_node_hour=0.01)
    a = FaultInjector(base).schedule(64, 7200.0, stream="s")
    b = FaultInjector(with_oom).schedule(64, 7200.0, stream="s")
    node_a = [ev for ev in a if ev.kind is FaultKind.NODE_FAILURE]
    node_b = [ev for ev in b if ev.kind is FaultKind.NODE_FAILURE]
    assert node_a == node_b
    assert b.count(FaultKind.OOM_KILL) > 0


def test_exposure_scales_with_nodes_and_walltime():
    spec = FaultSpec(node_mtbf_hours=100.0, seed=5)
    inj = FaultInjector(spec)
    small = sum(len(inj.schedule(16, 3600.0, stream=f"r{i}"))
                for i in range(50))
    wide = sum(len(inj.schedule(256, 3600.0, stream=f"r{i}"))
               for i in range(50))
    long_ = sum(len(inj.schedule(16, 16 * 3600.0, stream=f"r{i}"))
                for i in range(50))
    assert wide > small * 4
    assert long_ > small * 4


def test_events_sorted_and_within_window():
    sched = FaultInjector(RICH).schedule(64, 7200.0, stream="s")
    times = [ev.time for ev in sched]
    assert times == sorted(times)
    assert all(0.0 < t < 7200.0 for t in times)
    assert all(0 <= ev.node < 64 for ev in sched)


def test_os_asymmetry():
    sched = FaultInjector(RICH).schedule(64, 7200.0, stream="s")
    assert FaultKind.PROXY_CRASH not in KINDS_BY_OS["linux"]
    assert FaultKind.DAEMON_STALL not in KINDS_BY_OS["mckernel"]
    fatal_linux = sched.first_fatal("linux")
    fatal_mck = sched.first_fatal("mckernel")
    assert fatal_linux is not None and fatal_linux.kind.fatal
    assert fatal_linux.kind is not FaultKind.PROXY_CRASH
    assert fatal_mck.kind is not FaultKind.DAEMON_STALL
    with pytest.raises(ConfigurationError):
        sched.first_fatal("windows")


def test_stall_time_only_for_linux():
    sched = FaultInjector(RICH).schedule(64, 7200.0, stream="s")
    n_stalls = sched.count(FaultKind.DAEMON_STALL)
    assert n_stalls > 0
    assert sched.stall_time(RICH, "linux") == pytest.approx(
        n_stalls * RICH.daemon_stall_seconds)
    assert sched.stall_time(RICH, "mckernel") == 0.0
    # 'before' clips stalls after the first fatal event.
    fatal = sched.first_fatal("linux")
    clipped = sched.stall_time(RICH, "linux", before=fatal.time)
    assert clipped <= sched.stall_time(RICH, "linux")


def test_event_exceptions():
    from repro.faults import FaultEvent

    assert isinstance(
        FaultEvent(1.0, FaultKind.NODE_FAILURE, node=3).exception(),
        NodeFailure)
    assert isinstance(
        FaultEvent(1.0, FaultKind.OOM_KILL).exception(),
        CgroupLimitExceeded)
    assert isinstance(
        FaultEvent(1.0, FaultKind.PROXY_CRASH).exception(),
        ProxyCrashed)
    with pytest.raises(ConfigurationError):
        FaultEvent(1.0, FaultKind.DAEMON_STALL).exception()


def test_null_spec_schedules_nothing():
    sched = FaultInjector(FaultSpec.none()).schedule(4096, 1e6, stream="s")
    assert len(sched) == 0
    assert sched.first_fatal("linux") is None


def test_schedule_validation():
    inj = FaultInjector(RICH)
    with pytest.raises(ConfigurationError):
        inj.schedule(0, 100.0, stream="s")
    with pytest.raises(ConfigurationError):
        inj.schedule(4, -1.0, stream="s")
    assert len(inj.schedule(4, 0.0, stream="s")) == 0

