"""cgroups: cpuset inheritance, memory limits, the Fugaku hierarchy,
and the memcg accounting contract under drawn sequences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CgroupLimitExceeded, ConfigurationError
from repro.kernel.cgroup import Cgroup, MemoryController, make_fugaku_hierarchy
from repro.units import gib, mib


def test_child_cpuset_must_be_subset():
    root = Cgroup("", cpus=range(8), mems=[0])
    Cgroup("ok", cpus=[0, 1], mems=[0], parent=root)
    with pytest.raises(ConfigurationError):
        Cgroup("bad", cpus=[7, 8], mems=[0], parent=root)
    with pytest.raises(ConfigurationError):
        Cgroup("bad-mem", cpus=[0], mems=[1], parent=root)


def test_duplicate_child_names_rejected():
    root = Cgroup("", cpus=range(4), mems=[0])
    Cgroup("app", cpus=[0], mems=[0], parent=root)
    with pytest.raises(ConfigurationError):
        Cgroup("app", cpus=[1], mems=[0], parent=root)


def test_empty_sets_rejected():
    with pytest.raises(ConfigurationError):
        Cgroup("x", cpus=[], mems=[0])
    with pytest.raises(ConfigurationError):
        Cgroup("x", cpus=[0], mems=[])


def test_memory_charge_and_limit():
    cg = Cgroup("app", cpus=[0], mems=[0], memory_limit=mib(10))
    cg.memory.charge(mib(6))
    cg.memory.charge(mib(4))
    with pytest.raises(CgroupLimitExceeded):
        cg.memory.charge(1)
    assert cg.memory.failcnt == 1
    cg.memory.uncharge(mib(10))
    assert cg.memory.usage_bytes == 0


def test_uncharge_more_than_usage_rejected():
    cg = Cgroup("app", cpus=[0], mems=[0])
    cg.memory.charge(100)
    with pytest.raises(ConfigurationError):
        cg.memory.uncharge(200)


def test_unlimited_group_never_fails():
    cg = Cgroup("app", cpus=[0], mems=[0], memory_limit=None)
    cg.memory.charge(gib(100))
    assert cg.memory.failcnt == 0


def test_surplus_hugetlb_counting_depends_on_hook():
    hooked = Cgroup("a", cpus=[0], mems=[0], memory_limit=mib(2),
                    charge_surplus_hugetlb=True)
    with pytest.raises(CgroupLimitExceeded):
        hooked.memory.charge(mib(3), surplus_hugetlb=True)
    stock = Cgroup("b", cpus=[0], mems=[0], memory_limit=mib(2),
                   charge_surplus_hugetlb=False)
    stock.memory.charge(mib(3), surplus_hugetlb=True)  # escapes the limit
    assert stock.memory.surplus_hugetlb_bytes == mib(3)


def test_task_attach_detach():
    cg = Cgroup("app", cpus=[0], mems=[0])
    cg.attach(42)
    assert 42 in cg.tasks
    cg.detach(42)
    assert 42 not in cg.tasks
    cg.detach(42)  # idempotent


def test_cpuset_queries():
    cg = Cgroup("app", cpus=[2, 3], mems=[1])
    assert cg.cpuset.allows_cpu(2)
    assert not cg.cpuset.allows_cpu(0)
    assert cg.cpuset.allows_mem(1)
    assert not cg.cpuset.allows_mem(0)


def test_path_rendering():
    root = Cgroup("", cpus=[0, 1], mems=[0])
    app = Cgroup("app", cpus=[0], mems=[0], parent=root)
    assert app.path() == "//app"


def test_fugaku_hierarchy_shape():
    root, system, app = make_fugaku_hierarchy(
        all_cpus=range(50),
        assistant_cpus=[0, 1],
        app_cpus=range(2, 50),
        system_mems=[4, 5],
        app_mems=[0, 1, 2, 3],
        app_memory_limit=gib(28),
    )
    assert root.children == {"system": system, "app": app}
    assert system.effective_cpus() == frozenset({0, 1})
    assert app.effective_cpus() == frozenset(range(2, 50))
    assert app.effective_mems() == frozenset({0, 1, 2, 3})
    # The Fugaku hook is on for the application group.
    assert app.memory.charge_surplus_hugetlb
    assert app.memory.limit_bytes == gib(28)


def test_fugaku_hierarchy_isolates_system_and_app():
    _, system, app = make_fugaku_hierarchy(
        all_cpus=range(50), assistant_cpus=[0, 1], app_cpus=range(2, 50),
        system_mems=[4], app_mems=[0, 1, 2, 3],
    )
    assert not (system.effective_cpus() & app.effective_cpus())
    assert not (system.effective_mems() & app.effective_mems())


def test_negative_charge_rejected():
    cg = Cgroup("app", cpus=[0], mems=[0])
    with pytest.raises(ConfigurationError):
        cg.memory.charge(-1)


# -- the memcg accounting contract, under drawn sequences ---------------


class StaleUsageController(MemoryController):
    """Planted lost update: charge() commits from a ``usage_bytes`` read
    cached at the previous charge, so an uncharge in between is
    overwritten."""

    _cached_usage = 0

    def charge(self, nbytes, surplus_hugetlb=False):
        super().charge(nbytes, surplus_hugetlb)
        if not surplus_hugetlb:
            self.usage_bytes = self._cached_usage + nbytes
            self._cached_usage = self.usage_bytes


def _drive_memcg(memcg, ops):
    """Apply ``ops`` (``(op, nbytes, surplus)`` triples) to ``memcg``,
    asserting after each one that:

    * ``usage_bytes`` and ``surplus_hugetlb_bytes`` equal the accepted
      charges minus the uncharges;
    * a refused charge is an over-limit one, changes neither counter
      and adds exactly 1 to ``failcnt``;
    * the counted bytes never exceed the limit.
    """
    expected = {False: 0, True: 0}  # surplus_hugetlb -> net bytes

    def counters():
        return memcg.usage_bytes, memcg.surplus_hugetlb_bytes

    def counted():
        if memcg.charge_surplus_hugetlb:
            return memcg.usage_bytes + memcg.surplus_hugetlb_bytes
        return memcg.usage_bytes

    for op, nbytes, surplus in ops:
        before, counted_before, failcnt = counters(), counted(), memcg.failcnt
        if op == "charge":
            try:
                memcg.charge(nbytes, surplus_hugetlb=surplus)
            except CgroupLimitExceeded:
                assert memcg.limit_bytes is not None
                assert memcg.charge_surplus_hugetlb or not surplus
                assert counted_before + nbytes > memcg.limit_bytes
                assert counters() == before
                assert memcg.failcnt == failcnt + 1
                continue
            expected[surplus] += nbytes
        else:
            try:
                memcg.uncharge(nbytes, surplus_hugetlb=surplus)
            except ConfigurationError:
                assert nbytes > expected[surplus]
                assert counters() == before
                continue
            expected[surplus] -= nbytes
        assert memcg.failcnt == failcnt
        assert counters() == (expected[False], expected[True])
        if memcg.limit_bytes is not None:
            assert counted() <= memcg.limit_bytes


MEMCG_OPS = st.lists(
    st.tuples(st.sampled_from(["charge", "uncharge"]),
              st.integers(0, 4096), st.booleans()),
    max_size=25)


@settings(max_examples=50, deadline=None)
@given(ops=MEMCG_OPS, limit=st.integers(0, 8192), hook=st.booleans())
def test_memcg_accounting_balances(ops, limit, hook):
    _drive_memcg(MemoryController(limit_bytes=limit,
                                  charge_surplus_hugetlb=hook), ops)


def test_contract_catches_lost_update():
    ops = [("charge", 100, False), ("uncharge", 100, False),
           ("charge", 10, False)]
    _drive_memcg(MemoryController(limit_bytes=1 << 20), ops)
    with pytest.raises(AssertionError):
        _drive_memcg(StaleUsageController(limit_bytes=1 << 20), ops)
