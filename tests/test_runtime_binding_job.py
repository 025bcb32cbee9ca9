"""The batch-job lifecycle."""

import pytest

from repro.errors import ConfigurationError
from repro.runtime.job import BatchSystem, ContainerSpec, Job, OsChoice


def test_linux_job_provisioning(fugaku_machine):
    batch = BatchSystem(fugaku_machine)
    job = Job(name="lqcd", n_nodes=1024, os_choice=OsChoice.LINUX)
    prov = batch.provision(job)
    assert prov.os_instance.kind == "linux"
    assert not prov.prologue_epilogue_used
    # Default tuning on aarch64 is the Fugaku production stack.
    assert prov.os_instance.tuning.name == "fugaku-linux"


def test_mckernel_job_provisioning(fugaku_machine):
    batch = BatchSystem(fugaku_machine)
    job = Job(name="lqcd", n_nodes=1024, os_choice=OsChoice.MCKERNEL)
    prov = batch.provision(job)
    assert prov.os_instance.kind == "mckernel"
    assert prov.prologue_epilogue_used  # §5.1 prologue boot


def test_ofp_default_tuning(ofp_machine):
    batch = BatchSystem(ofp_machine)
    prov = batch.provision(Job("amg", 16, OsChoice.LINUX))
    assert prov.os_instance.tuning.name == "ofp-linux"


def test_per_job_pmu_switch(fugaku_machine):
    batch = BatchSystem(fugaku_machine)
    prov = batch.provision(
        Job("profiled", 16, OsChoice.LINUX, stop_pmu_reads=False))
    names = {t.name for t in prov.os_instance.noise_tasks_on_app_cores()}
    assert "pmu-read" in names  # the user kept TCS PMU collection on


def test_oversized_job_rejected(testbed_machine):
    batch = BatchSystem(testbed_machine)
    with pytest.raises(ConfigurationError):
        batch.provision(Job("big", 17, OsChoice.LINUX))
    with pytest.raises(ConfigurationError):
        Job("zero", 0, OsChoice.LINUX)


def test_container_spec_defaults():
    c = ContainerSpec()
    assert c.image == "host" and c.host_rootfs


def test_paging_policy_env_var(fugaku_machine):
    # §4.1.3: allocation scheme controlled by environment variables.
    demand = Job("j", 16, OsChoice.LINUX)
    assert not demand.prefault
    prepage = Job("j", 16, OsChoice.LINUX,
                  env={"XOS_MMM_L_PAGING_POLICY": "prepage"})
    assert prepage.prefault
    with pytest.raises(ConfigurationError):
        Job("j", 16, OsChoice.LINUX,
            env={"XOS_MMM_L_PAGING_POLICY": "sometimes"})
