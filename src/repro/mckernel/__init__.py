"""IHK/McKernel: the lightweight multi-kernel OS (the paper's system)."""

from .ihk import (
    Ihk,
    LwkPartition,
    MemoryReservation,
    OsState,
    reserve_fugaku_style,
)
from .ikc import IkcSpec
from .lwk import McKernelInstance, McKernelProcess, boot_mckernel
from .proxy import DelegationRecord, OpenFile, ProxyProcess
from .syscalls import (
    DELEGATED_EXAMPLES,
    LOCAL_SYSCALLS,
    UNSUPPORTED,
    is_delegated,
    is_local,
)

__all__ = [
    "Ihk",
    "LwkPartition",
    "MemoryReservation",
    "OsState",
    "reserve_fugaku_style",
    "IkcSpec",
    "McKernelInstance",
    "McKernelProcess",
    "boot_mckernel",
    "DelegationRecord",
    "OpenFile",
    "ProxyProcess",
    "DELEGATED_EXAMPLES",
    "LOCAL_SYSCALLS",
    "UNSUPPORTED",
    "is_delegated",
    "is_local",
]
