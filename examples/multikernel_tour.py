#!/usr/bin/env python3
"""A tour of the IHK/McKernel machinery (§5), bottom to top.

Walks through the real deployment flow on a Fugaku node:

1. IHK reserves CPUs and memory from Linux (no reboot);
2. an LWK instance is created, assigned resources, and booted;
3. a process starts on McKernel with its Linux proxy twin;
4. performance-sensitive syscalls are served locally, the rest are
   delegated over IKC — with the fd table living on the Linux side;
5. RDMA registration is priced on the Tofu PicoDriver fast path, the
   delegated path and Linux's ioctl path;
6. process exit tears everything down (and shows the TLB invalidation
   volume that §4.2.2 worries about).

Run:  python examples/multikernel_tour.py
"""

from repro.hardware import fugaku
from repro.kernel import fugaku_production
from repro.mckernel import (
    Ihk,
    McKernelInstance,
    MemoryReservation,
    reserve_fugaku_style,
)
from repro.net.rdma import registration_time
from repro.units import fmt_bytes, fmt_time, mib


def main() -> None:
    node = fugaku().node
    print(f"node: {node.name}, "
          f"{node.topology.physical_cores} cores, "
          f"{fmt_bytes(node.numa.total_bytes())} HBM2\n")

    # --- 1-2: partition and boot -------------------------------------
    ihk = Ihk(node)
    partition = reserve_fugaku_style(ihk, memory_fraction=0.9)
    print("IHK partitioning (ihkconfig reserve / ihkosctl create+boot):")
    print(f"  LWK CPUs   : {len(partition.cpus)} "
          f"(Linux keeps {sorted(ihk.linux_cpus())})")
    print(f"  LWK memory : {fmt_bytes(partition.total_memory())} over "
          f"{len(partition.memory)} NUMA nodes")
    print(f"  state      : {partition.state.value}\n")

    mck = McKernelInstance(node, ihk, partition,
                           host_tuning=fugaku_production())

    # --- 3: spawn a process with its proxy ------------------------------
    proc = mck.spawn(memory_scale=0.01)
    print(f"spawned LWK pid {proc.pid} with Linux proxy pid "
          f"{proc.proxy.pid}\n")

    # --- 4: syscalls -----------------------------------------------------
    print("syscalls (local = LWK, delegated = proxy over IKC):")
    vma = proc.syscall("mmap", mib(64))
    print(f"  mmap(64 MiB)      -> local;  page kind "
          f"{mck.app_page_kind().value} "
          f"({fmt_bytes(mck.app_page_geometry().size_of(mck.app_page_kind()))}"
          f" pages)")
    fd = proc.syscall("open", "/data/lattice.conf")
    print(f"  open(...)         -> delegated; Linux-side fd {fd}")
    written = proc.syscall("write", fd, 1 << 20)
    print(f"  write(fd, 1 MiB)  -> delegated; wrote {written} bytes "
          f"(file position lives in the proxy: "
          f"{proc.proxy.fd_table[fd].position})")
    proc.syscall("close", fd)
    proc.address_space.touch(vma, vma.length)
    print(f"  touched the heap: "
          f"{proc.address_space.stats.faults_by_kind} faults")
    print(f"  time in local syscalls    : {fmt_time(proc.local_time)} "
          f"({proc.local_calls} calls)")
    print(f"  time in delegated syscalls: {fmt_time(proc.delegated_time)} "
          f"({proc.delegated_calls} calls, IKC round trip "
          f"{fmt_time(partition.ikc.round_trip)})\n")

    # --- 5: RDMA registration ------------------------------------------------
    from repro.kernel import LinuxKernel

    linux = LinuxKernel(node, fugaku_production())
    no_pico = McKernelInstance(node, ihk, partition, picodriver=False)
    print(f"RDMA registration of {fmt_bytes(vma.length)} (§5.1):")
    print(f"    Tofu PicoDriver     : "
          f"{fmt_time(registration_time(mck, vma.length))}")
    print(f"    McKernel delegated  : "
          f"{fmt_time(registration_time(no_pico, vma.length))}")
    print(f"    Linux ioctl         : "
          f"{fmt_time(registration_time(linux, vma.length))}\n")

    # --- 6: teardown ----------------------------------------------------------
    invalidated = proc.exit()
    print(f"process exit: {invalidated} base-page translations "
          f"invalidated (the §4.2.2 TLB-storm volume); proxy alive: "
          f"{proc.proxy.alive}")
    ihk.shutdown(partition)
    ihk.destroy(partition)
    print(f"LWK shut down and destroyed; resources back in the IHK pool")


if __name__ == "__main__":
    main()
