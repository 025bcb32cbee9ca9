"""Proxy-process lifecycle: teardown on exit."""

import pytest

from repro.errors import SyscallError
from repro.mckernel.proxy import ProxyProcess


def test_exit_is_not_a_crash():
    proxy = ProxyProcess(pid=100, lwk_pid=1)
    proxy.exit()
    with pytest.raises(SyscallError) as err:
        proxy.sys_open("/x")
    assert err.value.errno_name == "ESRCH"
