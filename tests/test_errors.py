"""The exception hierarchy: every class constructible, chains intact."""

import pytest

from repro import errors


def test_every_exception_constructible():
    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            exc = obj("boom") if obj is not errors.SyscallError else \
                obj("ENOENT", "boom")
            assert isinstance(exc, errors.ReproError)
            assert str(exc)


def test_base_chain():
    assert issubclass(errors.ConfigurationError, errors.ReproError)
    assert issubclass(errors.ResourceError, errors.ReproError)
    assert issubclass(errors.SimulationError, errors.ReproError)
    assert issubclass(errors.SyscallError, errors.ReproError)
    assert issubclass(errors.CacheCorruptionError, errors.ReproError)


def test_memory_chain():
    assert issubclass(errors.OutOfMemoryError, errors.ResourceError)
    assert issubclass(errors.CgroupLimitExceeded, errors.OutOfMemoryError)
    assert issubclass(errors.PartitionError, errors.ResourceError)
    # An injected OOM is caught by handlers for any ancestor.
    exc = errors.CgroupLimitExceeded("memcg limit")
    assert isinstance(exc, errors.OutOfMemoryError)
    assert isinstance(exc, errors.ResourceError)
    assert isinstance(exc, errors.ReproError)


def test_fault_chain():
    for cls in (errors.NodeFailure, errors.ProxyCrashed,
                errors.JobRetriesExhausted):
        assert issubclass(cls, errors.FaultError)
        assert issubclass(cls, errors.ReproError)
    # CgroupLimitExceeded deliberately stays on the memory branch: an
    # injected OOM raises the *existing* exception, not a new one.
    assert not issubclass(errors.CgroupLimitExceeded, errors.FaultError)


def test_node_failure_carries_coordinates():
    exc = errors.NodeFailure("node 7 died", node=7, at=123.5)
    assert exc.node == 7
    assert exc.at == 123.5
    assert errors.NodeFailure().node is None


def test_syscall_error_errno_name():
    exc = errors.SyscallError("EBADF", "fd 42")
    assert exc.errno_name == "EBADF"
    assert "EBADF" in str(exc)


def test_catching_repro_error_catches_everything():
    with pytest.raises(errors.ReproError):
        raise errors.ProxyCrashed("proxy died")
    with pytest.raises(errors.ReproError):
        raise errors.CacheCorruptionError("truncated entry")
