"""Crash-safe file primitives: the one module that writes durably.

Every crash-sensitive write in the package goes through a function
here: the journal and the telemetry spools, submission artifacts and
claims, the lease bump and the lease break, run-cache entries, result
publication, and fsck's repairs.  No other module issues the raw
syscalls itself (``os.open``, ``os.write``, ``os.ftruncate``,
``os.fsync``, ``os.replace``/``os.rename``, ``tempfile.mkstemp``) —
the chaos injector's ``os.write`` aside — so each idiom is written,
reviewed and tested once.  ``tests/test_durable.py`` holds both the
containment and the idioms:

* :class:`AppendLog` — canonical-JSONL records, one ``O_APPEND``
  ``write(2)`` each, so concurrent appenders interleave lines, never
  bytes.  A crash leaves at most one unterminated final segment;
  readers report it as torn, appenders refuse or heal it.
* :func:`exclusive_create` — ``O_CREAT | O_EXCL``: of any number of
  racing creators exactly one wins.
* :func:`atomic_publish` — mkstemp → write → fsync → ``os.replace``:
  a reader sees the old file or the whole new one, never a prefix.
* :func:`atomic_rename` — one rename with exactly one winner, the
  parent directory fsync'd when durable.
* :func:`rewrite_in_place` — the lease bump (see its docstring for
  why it is the one in-place rewrite).
* :func:`quarantine` — move evidence aside, never delete it.

Crash points: a primitive that wraps a write takes the chaos site name
from its caller and hands the write to the injector
(:meth:`~repro.chaos.hooks.ChaosInjector.write`), so torn-write, kill
and io-error schedules hit the real ``write(2)``.  With chaos off that
costs one module-global read.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Callable, NamedTuple, Optional

from .chaos.hooks import get_chaos
from .errors import JournalCorruptionError
from .obs.export import canonical_json

__all__ = ["AppendLog", "LogTail", "SYSCALLS", "atomic_publish",
           "atomic_rename", "exclusive_create", "quarantine",
           "quarantine_path", "rewrite_in_place"]

#: The calls this module owns: ``tests/test_durable.py`` fails on any
#: of them anywhere else.
SYSCALLS = frozenset({
    "os.open", "os.write", "os.pwrite", "os.ftruncate", "os.truncate",
    "os.fsync", "os.fdatasync", "os.replace", "os.rename",
    "shutil.move", "tempfile.mkstemp",
})


def _write(fd: int, data: bytes, site: Optional[str]) -> None:
    """One ``write(2)`` of ``data``, through the chaos injector when
    ``site`` names a crash point and chaos is on."""
    cz = get_chaos() if site is not None else None
    if cz is None:
        os.write(fd, data)
    else:
        cz.write(fd, data, site)


def _fsync_dir(directory: pathlib.Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss
    (rename atomicity covers crashes, not the directory page still in
    the page cache).  Filesystems that refuse directory fds are
    tolerated — the rename is still crash-atomic there."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _torn_tail_bytes(fd: int) -> int:
    """Bytes past the last newline of an open file (0 when the tail is
    healthy).  One ``pread`` of the final byte on the healthy path —
    cheap enough to guard every append."""
    size = os.fstat(fd).st_size
    if size == 0 or os.pread(fd, 1, size - 1) == b"\n":
        return 0
    # Walk back in chunks to the last newline (a torn fragment is at
    # most one record, so this is one read in practice).
    torn = 0
    pos = size
    while pos > 0:
        step = min(4096, pos)
        chunk = os.pread(fd, step, pos - step)
        cut = chunk.rfind(b"\n")
        if cut >= 0:
            return torn + (len(chunk) - cut - 1)
        torn += len(chunk)
        pos -= step
    return torn


class AppendLog:
    """An append-only file of canonical-JSON lines.

    ``site`` is the chaos crash point wrapping each record's write
    (``None``: never consulted).  ``durable=True`` fsyncs every append
    before returning, so an acknowledged record survives ``kill -9``
    and power loss.

    ``heal`` is the torn-tail policy, the one thing the two callers
    disagree on.  ``False`` (the journal, many writers) refuses to
    append after a torn tail: the new record would be glued onto
    another process's crash fragment, turning tolerated tail damage
    into interior corruption.  ``True`` (a telemetry spool, one
    writer) truncates the fragment first — it can only be this
    writer's own earlier crash.
    """

    def __init__(self, path: "str | os.PathLike",
                 site: Optional[str] = None, durable: bool = True,
                 heal: bool = False) -> None:
        self.path = pathlib.Path(path)
        self.site = site
        self.durable = durable
        self.heal = heal

    def append(self, record: dict) -> None:
        """Append ``record`` as one canonical line with one write."""
        data = (canonical_json(record) + "\n").encode("utf-8")
        # O_RDWR, not O_WRONLY: the torn-tail scan preads through the
        # same descriptor.  O_APPEND still pins the write to the end.
        fd = os.open(self.path, os.O_APPEND | os.O_CREAT | os.O_RDWR,
                     0o644)
        try:
            torn = _torn_tail_bytes(fd)
            if torn and not self.heal:
                raise JournalCorruptionError(
                    f"{self.path}: torn final line (crash evidence); "
                    "appending would corrupt it further — run "
                    "'repro service verify --repair' first")
            if torn:
                os.ftruncate(fd, os.fstat(fd).st_size - torn)
            _write(fd, data, self.site)
            if self.durable:
                os.fsync(fd)
        finally:
            os.close(fd)

    def torn_tail(self) -> int:
        """Bytes past the last newline (0 when healthy or missing)."""
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except OSError:
            return 0
        try:
            return _torn_tail_bytes(fd)
        finally:
            os.close(fd)

    def heal_torn_tail(self) -> bytes:
        """Truncate a torn final segment off, returning the removed
        bytes (``b""`` when the tail was already healthy).  The
        fragment was never acknowledged, so dropping it is the one safe
        repair; callers (fsck) quarantine the bytes for post-mortems.
        Only safe while no appender is live."""
        try:
            fd = os.open(self.path, os.O_RDWR)
        except OSError:
            return b""
        try:
            torn = _torn_tail_bytes(fd)
            if torn == 0:
                return b""
            size = os.fstat(fd).st_size
            fragment = os.pread(fd, torn, size - torn)
            os.ftruncate(fd, size - torn)
            if self.durable:
                os.fsync(fd)
            return fragment
        finally:
            os.close(fd)

    def read(self) -> "tuple[list[dict], list[str], bool]":
        """``(records, damaged, torn)`` of the whole file: the fields of
        :meth:`read_from` from the start."""
        tail = self.read_from()
        return tail.records, tail.damaged, tail.torn

    def read_from(self, ino: int = 0, offset: int = 0,
                  line: int = 0) -> "LogTail":
        """The complete lines past byte ``offset`` of the file, which
        holds ``line`` complete lines before it.

        ``ino`` is the inode the caller's ``offset`` belongs to.  When
        the file now has another inode (it was replaced or
        quarantined), is missing while ``ino`` is not 0, or is shorter
        than ``offset`` (it was truncated), the read starts over from
        byte 0 and says so in ``rewound``.

        Only newline-terminated lines are records: the bytes after the
        last newline were never acknowledged, even when a write torn
        just before its ``\\n`` left them parseable, so ``torn`` is
        reported and the returned ``offset`` stops before them.  Readers
        thus agree with :meth:`torn_tail` and :meth:`heal_torn_tail`,
        and a later call picks the line up once its writer finishes it.
        A line that is not a UTF-8 JSON object, or nests too deep to
        decode, goes to ``damaged`` as ``"<line>: <reason>"``, with the
        line number counted from the start of the file; blank lines are
        skipped.
        """
        try:
            fh = open(self.path, "rb")
        except OSError:
            # A missing file is an empty log.
            return LogTail([], [], [], False, 0, 0, 0,
                           ino != 0 or offset > 0)
        with fh:
            st = os.fstat(fh.fileno())
            rewound = st.st_ino != ino or st.st_size < offset
            if rewound:
                offset = line = 0
            fh.seek(offset)
            data = fh.read(st.st_size - offset)
        end = data.rfind(b"\n") + 1
        lines = data.split(b"\n")
        torn = lines.pop() != b""
        records: list[dict] = []
        numbers: list[int] = []
        damaged: list[str] = []
        for number, text in enumerate(lines, line + 1):
            if not text:
                continue
            try:
                # UnicodeDecodeError is a ValueError: a line that is
                # not UTF-8 is damaged like one that is not JSON, and
                # so is one nested deeper than the decoder recurses.
                string = text.decode("utf-8")
                try:
                    record, stop = _scan(string, 0)
                except (StopIteration, ValueError):
                    stop = -1
                if stop != len(string):
                    # Whitespace, a BOM, extra data or bad JSON: the
                    # full decoder accepts the line or words the damage.
                    record = _decode(string)
            except (ValueError, RecursionError) as exc:
                damaged.append(f"{number}: unparseable line ({exc})")
                continue
            if not isinstance(record, dict):
                damaged.append(f"{number}: line is "
                               f"{type(record).__name__}, expected object")
                continue
            records.append(record)
            numbers.append(number)
        return LogTail(records, numbers, damaged, torn, st.st_ino,
                       offset + end, line + len(lines), rewound)


#: :func:`json.loads` for a ``str`` minus its per-call argument checks
#: (a line opening with a BOM is still rejected, as "Expecting value").
_decode = json.JSONDecoder().decode
#: The scanner under :data:`_decode`: ``(value, end)`` of the JSON
#: value starting at an index.  Where it takes a whole line, from index
#: 0 to the end, the decoder would return that same value, so a line
#: costs one scanner call and no whitespace matching.
_scan = json.JSONDecoder().scan_once


class LogTail(NamedTuple):
    """What :meth:`AppendLog.read_from` found."""

    #: The intact records, in append order.
    records: "list[dict]"
    #: The line number of each record, counted from the file's start.
    numbers: "list[int]"
    #: ``"<line>: <reason>"`` per damaged terminated line.
    damaged: "list[str]"
    #: The file ends in an unterminated segment.
    torn: bool
    #: The inode read (0 when the file is missing).
    ino: int
    #: The byte offset just past the last newline read.
    offset: int
    #: The number of terminated lines before ``offset``.
    line: int
    #: The read started over from byte 0 instead of the given offset.
    rewound: bool


def exclusive_create(path: "str | os.PathLike", data: bytes,
                     durable: bool = False) -> bool:
    """Create ``path`` holding ``data``; False when it already exists.

    ``O_CREAT | O_EXCL`` is the POSIX mutual-exclusion primitive: of
    any number of racing creators exactly one gets True.
    """
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
    except FileExistsError:
        return False
    try:
        os.write(fd, data)
        if durable:
            os.fsync(fd)
    finally:
        os.close(fd)
    return True


def atomic_publish(path: "str | os.PathLike", data: bytes,
                   site: Optional[str] = None,
                   durable: bool = True) -> bool:
    """Replace ``path`` with ``data`` in one step.

    mkstemp in the target's directory → write → fsync → ``os.replace``:
    readers see the old file or the whole new one, and a crash
    mid-write leaves only a stray ``*.tmp``.  Returns False, removing
    the tmp file, when the filesystem refuses (an injected io-error
    included), so callers whose file is an optimisation — the run
    cache — degrade instead of failing.
    """
    path = pathlib.Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        try:
            _write(fd, data, site)
            # The rename is only atomic for bytes that reached the
            # disk: without the fsync a power cut shortly after
            # os.replace can surface an empty or torn file.
            if durable:
                os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    return True


def atomic_rename(src: "str | os.PathLike", dst: "str | os.PathLike",
                  durable: bool = False) -> bool:
    """Rename ``src`` (a file or a directory) to ``dst`` in one step.

    Returns False when the rename is refused: ``src`` is already gone
    (another caller won the race) or ``dst`` is a non-empty directory
    (another worker published first).  ``durable=True`` also fsyncs
    the parent directory of ``dst`` so the new entry survives power
    loss.
    """
    try:
        os.replace(src, dst)
    except OSError:
        return False
    if durable:
        _fsync_dir(pathlib.Path(dst).parent)
    return True


def rewrite_in_place(path: "str | os.PathLike",
                     update: "Callable[[bytes], tuple[bytes, Optional[str]]]"
                     ) -> None:
    """Rewrite a small file through the descriptor it was read from.

    ``update`` maps the current bytes to ``(new bytes, chaos site or
    None)``; raising from it leaves the file untouched.  Raises
    ``FileNotFoundError`` when ``path`` is gone.

    The lease bump is the only caller, and none of the other
    primitives fits it.  An ``O_EXCL`` re-create leaves the claim
    missing for a window a reaper could steal; an atomic publish
    re-creates a claim that a lease break has just renamed away; an
    append log cannot shrink a payload.  Opening ``O_RDWR`` without
    ``O_CREAT`` makes a racing lease break always win: once its rename
    has landed the open fails instead of resurrecting the claim.  The
    price is the window between the truncate and the write: a crash
    there leaves an unparseable file, which readers take as one missed
    observation and fsck repairs (``torn-claim``).
    """
    fd = os.open(path, os.O_RDWR)
    try:
        data, site = update(os.read(fd, 1 << 16))
        os.lseek(fd, 0, os.SEEK_SET)
        os.ftruncate(fd, 0)
        _write(fd, data, site)
    finally:
        os.close(fd)


def quarantine_path(qdir: pathlib.Path,
                    rel: "str | pathlib.PurePath") -> pathlib.Path:
    """A fresh path for ``rel`` under ``qdir``: the sub-tree is kept
    and ``.1``, ``.2``, … are appended on collision, so evidence is
    never overwritten."""
    rel = pathlib.PurePath(rel)
    parent = qdir / rel.parent
    parent.mkdir(parents=True, exist_ok=True)
    target = parent / rel.name
    n = 0
    while target.exists():
        n += 1
        target = parent / f"{rel.name}.{n}"
    return target


def quarantine(path: pathlib.Path, qdir: pathlib.Path,
               rel: "str | pathlib.PurePath | None" = None
               ) -> pathlib.Path:
    """Move ``path`` (a file or a directory) under ``qdir`` at ``rel``
    (default: its own name); returns where it landed."""
    target = quarantine_path(qdir, rel if rel is not None else path.name)
    os.replace(path, target)
    return target
