"""The proxy process — McKernel's agent on the Linux side (§5).

"For each OS process executed on McKernel there is a process running on
Linux, which we call the proxy-process" — it provides the execution
context for offloaded syscalls and keeps the Linux-side state (file
descriptor table, file positions, ...) that McKernel deliberately has
no notion of: McKernel "simply returns the number it receives from the
proxy process during the execution of an open() system call."

The model is functional: a :class:`ProxyProcess` owns a real fd table
and file-position map; :class:`repro.mckernel.lwk.McKernelProcess`
routes delegated calls through it and the returned values are the ones
the LWK hands to the application.

The proxy's production fragility (§6: a killed proxy takes every piece
of Linux-side state with it) is priced at job level, by the batch
scheduler's :class:`~repro.errors.ProxyCrashed` faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import SyscallError
from ..obs.tracer import get_tracer


@dataclass
class OpenFile:
    """Linux-side state of one open file description."""

    path: str
    flags: str
    position: int = 0
    size: int = 0


@dataclass
class DelegationRecord:
    """Audit record of one offloaded syscall (used by tests/examples)."""

    name: str
    args: tuple
    result: object


class ProxyProcess:
    """Linux-side twin of one McKernel process."""

    _STD_FDS = 3  # 0/1/2 pre-opened

    def __init__(self, pid: int, lwk_pid: int) -> None:
        self.pid = pid                # Linux pid of the proxy
        self.lwk_pid = lwk_pid        # McKernel-side pid it serves
        self.fd_table: dict[int, OpenFile] = {
            0: OpenFile("/dev/stdin", "r"),
            1: OpenFile("/dev/stdout", "w"),
            2: OpenFile("/dev/stderr", "w"),
        }
        self._next_fd = self._STD_FDS
        self.delegations: list[DelegationRecord] = []
        self.alive = True

    # -- delegated syscall services ----------------------------------------

    def _record(self, name: str, args: tuple, result: object) -> None:
        self.delegations.append(DelegationRecord(name, args, result))
        t = get_tracer()
        if t is not None:
            # The proxy has no clock of its own; the per-layer logical
            # clock keeps its service order deterministic on the trace.
            t.event("proxy", name, ts=t.advance("proxy"),
                    actor=f"proxy/{self.pid}", lwk_pid=self.lwk_pid)

    def _ensure_alive(self) -> None:
        if not self.alive:
            raise SyscallError("ESRCH", f"proxy {self.pid} exited")

    def sys_open(self, path: str, flags: str = "r") -> int:
        """Delegated open(): fd allocated in the LINUX fd table; the LWK
        just forwards the number."""
        self._ensure_alive()
        if not path:
            raise SyscallError("ENOENT", "empty path")
        fd = self._next_fd
        self._next_fd += 1
        self.fd_table[fd] = OpenFile(path=path, flags=flags)
        self._record("open", (path, flags), fd)
        return fd

    def sys_close(self, fd: int) -> int:
        self._ensure_alive()
        if fd not in self.fd_table:
            raise SyscallError("EBADF", f"fd {fd}")
        if fd >= self._STD_FDS:
            del self.fd_table[fd]
        self._record("close", (fd,), 0)
        return 0

    def sys_write(self, fd: int, nbytes: int) -> int:
        self._ensure_alive()
        f = self.fd_table.get(fd)
        if f is None:
            raise SyscallError("EBADF", f"fd {fd}")
        if nbytes < 0:
            raise SyscallError("EINVAL", "negative count")
        f.position += nbytes
        f.size = max(f.size, f.position)
        self._record("write", (fd, nbytes), nbytes)
        return nbytes

    def sys_read(self, fd: int, nbytes: int) -> int:
        self._ensure_alive()
        f = self.fd_table.get(fd)
        if f is None:
            raise SyscallError("EBADF", f"fd {fd}")
        if nbytes < 0:
            raise SyscallError("EINVAL", "negative count")
        got = max(0, min(nbytes, f.size - f.position))
        f.position += got
        self._record("read", (fd, nbytes), got)
        return got

    def sys_lseek(self, fd: int, offset: int) -> int:
        self._ensure_alive()
        f = self.fd_table.get(fd)
        if f is None:
            raise SyscallError("EBADF", f"fd {fd}")
        if offset < 0:
            raise SyscallError("EINVAL", "negative offset")
        f.position = offset
        self._record("lseek", (fd, offset), offset)
        return offset

    def sys_ioctl(self, fd: int, request: str, arg: Optional[object] = None) -> int:
        """Delegated ioctl — the default (slow) path for Tofu STAG
        registration that the PicoDriver bypasses (§5.1)."""
        self._ensure_alive()
        if fd not in self.fd_table:
            raise SyscallError("EBADF", f"fd {fd}")
        self._record("ioctl", (fd, request, arg), 0)
        return 0

    # -- lifecycle ---------------------------------------------------------

    def exit(self) -> None:
        """Proxy teardown when the McKernel process exits."""
        self.alive = False
        self.fd_table.clear()

    @property
    def open_fd_count(self) -> int:
        return len(self.fd_table)
