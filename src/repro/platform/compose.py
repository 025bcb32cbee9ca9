"""The single concrete composition point for OS / fabric / noise.

Before this module existed, ``LinuxKernel(...)`` / ``boot_mckernel(...)``
construction was scattered over ~10 call sites with visible drift (some
passed ``interconnect=``, others silently dropped it).  Every substrate
now composes here: the CLI, the experiment modules and
:func:`repro.platform.build` all call the same three functions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import ConfigurationError
from ..hardware.machines import Machine
from ..kernel.base import OsInstance
from ..kernel.linux import LinuxKernel
from ..kernel.tuning import LinuxTuning
from ..mckernel.lwk import boot_mckernel
from ..net.fabric import FabricSpec, fabric_for
from ..noise.catalog import noise_sources_for

if TYPE_CHECKING:
    from ..noise.source import NoiseSource


def compose_os(
    machine: Machine,
    os_kind: str,
    tuning: LinuxTuning,
    *,
    mck_memory_fraction: float = 0.9,
    mck_picodriver: bool = True,
) -> OsInstance:
    """Boot one kernel personality on one machine's node design.

    ``tuning`` is the Linux tuning for ``os_kind="linux"`` and the
    *host* tuning for ``os_kind="mckernel"``.  The machine's
    interconnect is always threaded through (uniform IRQ tables).
    """
    if os_kind == "linux":
        return LinuxKernel(machine.node, tuning,
                           interconnect=machine.interconnect)
    if os_kind == "mckernel":
        return boot_mckernel(machine.node, host_tuning=tuning,
                             memory_fraction=mck_memory_fraction,
                             picodriver=mck_picodriver)
    raise ConfigurationError(f"unknown OS kind {os_kind!r}")


def resolve_fabric(machine: Machine) -> FabricSpec:
    """The fabric model of a machine's interconnect."""
    return fabric_for(machine.interconnect)


def noise_sources(
    os_instance: OsInstance, include_stragglers: bool = True
) -> "list[NoiseSource]":
    """Lower an OS instance to its per-app-core noise catalogue."""
    return noise_sources_for(os_instance,
                             include_stragglers=include_stragglers)
