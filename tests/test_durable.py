"""repro.durable: the crash-safe file primitives.

These tests carry the properties the crash analyzer used to prove per
call site: no durability syscall outside this module, fsync before the
publishing rename, and descriptors released on every failure path.
AppendLog's torn-tail behaviour is pinned through its two users
(tests/test_service_fsck.py, tests/test_service_telemetry.py); its line
decoding is held here to a plain decode of every line.
"""

from __future__ import annotations

import ast
import contextlib
import json
import os
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.chaos import ChaosInjector, ChaosSpec, SitePolicy, chaos_active
from repro.durable import (
    SYSCALLS,
    AppendLog,
    atomic_publish,
    atomic_rename,
    exclusive_create,
    rewrite_in_place,
)
from repro.errors import CrashInjected

PACKAGE_DIR = pathlib.Path(repro.__file__).resolve().parent
FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "crashsafe"


def _one_site(site, action="kill"):
    return ChaosInjector(ChaosSpec(sites=(SitePolicy(site=site,
                                                     action=action),)))


# -- containment: the syscalls stay in repro/durable.py -----------------


def import_aliases(tree: ast.AST) -> "dict[str, str]":
    """local name -> fully-qualified origin, from every import in
    ``tree`` (``import numpy as np`` maps ``np`` to ``numpy``; ``from
    os import write`` maps ``write`` to ``os.write``)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                aliases[local] = (alias.name if alias.asname
                                  else alias.name.split(".", 1)[0])
        elif isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{module}.{alias.name}"
    return aliases


def qualname(node: ast.AST, aliases: "dict[str, str]") -> str:
    """Dotted name of an expression, import aliases resolved
    (``np.random.seed`` -> ``numpy.random.seed``); "" when the
    expression is not a plain dotted name."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        base = qualname(node.value, aliases)
        return f"{base}.{node.attr}" if base else ""
    return ""


#: Module (relative to the package) -> the durability syscalls it may
#: issue.  ChaosInjector.write performs the (possibly torn) write itself.
SYSCALL_OWNERS = {"durable.py": SYSCALLS,
                  "chaos/hooks.py": frozenset({"os.write"})}


def uncontained_syscalls(root, planted=None):
    """One ``"<module>:<line>: <call>"`` per call into
    ``repro.durable.SYSCALLS`` that a module under ``root`` (a package
    directory or one file) makes without owning it, import aliases
    resolved.  ``planted`` maps a module to source appended to it."""
    files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
    hits = []
    for path in files:
        module = path.relative_to(root).as_posix() if root.is_dir() \
            else path.name
        source = path.read_text(encoding="utf-8") + \
            (planted or {}).get(module, "")
        tree = ast.parse(source)
        aliases = import_aliases(tree)
        allowed = SYSCALL_OWNERS.get(module, frozenset())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and \
                    qualname(node.func, aliases) in SYSCALLS - allowed:
                hits.append(f"{module}:{node.lineno}: "
                            f"{ast.get_source_segment(source, node)}")
    return hits


def test_durability_syscalls_stay_in_repro_durable():
    assert uncontained_syscalls(PACKAGE_DIR) == []
    assert uncontained_syscalls(FIXTURES / "cc001_neg.py") == []
    assert len(uncontained_syscalls(FIXTURES / "cc001_pos.py")) == 5


# -- fsync before the publishing rename ---------------------------------


def syscall_order(monkeypatch, call):
    """The writes, fsyncs and renames ``call()`` issues, in order."""
    events = []
    with monkeypatch.context() as m:
        for name in ("write", "fsync", "replace"):
            real = getattr(os, name)

            def spy(*args, _real=real, _name=name):
                events.append(_name)
                return _real(*args)

            m.setattr(os, name, spy)
        call()
    return events


def unsynced_writes(tmp_path, monkeypatch):
    """One ``"<primitive>: <event>"`` per durable write that reaches a
    rename, or its return, before an fsync."""
    tmp_path.mkdir(exist_ok=True)
    primitives = {
        "atomic_publish": lambda: atomic_publish(
            tmp_path / "entry.json", b"data", durable=True),
        "AppendLog.append": lambda: AppendLog(
            tmp_path / "log.jsonl").append({"n": 1}),
        "exclusive_create": lambda: exclusive_create(
            tmp_path / "job.json", b"{}", durable=True),
    }
    hits = []
    for label, call in primitives.items():
        pending = False
        for event in syscall_order(monkeypatch, call) + ["return"]:
            if event == "write":
                pending = True
            elif pending:  # an fsync, or a write reaching ``event``
                if event != "fsync":
                    hits.append(f"{label}: {event}")
                pending = False
    return hits


def test_durable_writes_are_synced_before_publishing(tmp_path,
                                                     monkeypatch):
    assert unsynced_writes(tmp_path, monkeypatch) == []
    # The rename lands first, then its directory entry is synced.
    (tmp_path / "work").mkdir()
    assert syscall_order(monkeypatch, lambda: atomic_rename(
        tmp_path / "work", tmp_path / "final", durable=True)) == [
        "replace", "fsync"]


# -- no descriptor outlives a failure -----------------------------------


def _open_fds():
    """The open descriptors (not the one that listed them)."""
    fds = set()
    for name in os.listdir("/proc/self/fd"):
        try:
            os.fstat(int(name))
        except OSError:
            continue
        fds.add(int(name))
    return fds


def site_primitives(root):
    """Each primitive, with the chaos site it carries (or None)."""
    claim = root / "claim"
    claim.write_bytes(b'{"heartbeat":0}')
    log = AppendLog(root / "log.jsonl", site="journal.append")
    spool = AppendLog(root / "spool.jsonl", site="telemetry.append",
                      heal=True)
    return [
        ("journal.append", lambda: log.append({"n": 1})),
        ("telemetry.append", lambda: spool.append({"n": 1})),
        ("cache.put", lambda: atomic_publish(
            root / "entry.json", b'{"n":1}', site="cache.put")),
        ("queue.lease_bump", lambda: rewrite_in_place(
            claim, lambda raw: (raw, "queue.lease_bump"))),
        (None, lambda: exclusive_create(root / "excl", b"x",
                                        durable=True)),
        (None, lambda: log.heal_torn_tail()),
    ]


def leaked_descriptors(tmp_path, monkeypatch,
                       failures=("write", "fsync", "ftruncate", "kill",
                                 "io-error")):
    """One ``"<site> <failure>"`` per primitive that leaves a descriptor
    open when a syscall fails, or a chaos kill/io-error fires at its
    site; the leaked descriptors are closed again."""
    def failing(*args):
        raise OSError("disk on fire")

    hits = []
    for failure in failures:
        root = tmp_path / failure
        root.mkdir(parents=True)
        for site, call in site_primitives(root):
            before = _open_fds()
            with contextlib.ExitStack() as stack:
                if failure in ("kill", "io-error"):
                    if site is None:
                        continue
                    cz = stack.enter_context(
                        chaos_active(_one_site(site, failure)))
                else:
                    stack.enter_context(monkeypatch.context()).setattr(
                        os, failure, failing)
                with contextlib.suppress(CrashInjected, OSError):
                    call()
                if failure in ("kill", "io-error"):
                    assert cz.report()["total_fires"] == 1, (site, failure)
            leaked = _open_fds() - before
            if leaked:
                hits.append(f"{site} {failure}")
            for fd in leaked:
                os.close(fd)
    return hits


@pytest.mark.skipif(not pathlib.Path("/proc/self/fd").is_dir(),
                    reason="needs /proc/self/fd")
def test_no_descriptor_leaks_on_any_failure(tmp_path, monkeypatch):
    assert leaked_descriptors(tmp_path, monkeypatch) == []


# -- AppendLog.read_from decodes every line like json.loads ------------


def reference_read(data: bytes, line: int = 0) -> tuple:
    """``read_from``'s fields for ``data`` read after ``line`` lines,
    by the plainest loop: split on newlines and decode each terminated
    line on its own.  The decoder is ``json.loads`` minus the BOM
    pre-check it adds for ``str`` input, so a line opening with a BOM
    is worded "Expecting value", as the journal has always worded it."""
    decode = json.JSONDecoder().decode
    lines = data.split(b"\n")
    torn = lines.pop() != b""
    records, numbers, damaged = [], [], []
    for number, text in enumerate(lines, line + 1):
        if not text:
            continue
        try:
            record = decode(text.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            damaged.append(f"{number}: unparseable line ({exc})")
            continue
        if not isinstance(record, dict):
            damaged.append(f"{number}: line is {type(record).__name__}, "
                           "expected object")
            continue
        records.append(record)
        numbers.append(number)
    return (records, numbers, damaged, torn, data.rfind(b"\n") + 1,
            line + len(lines))


_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)

#: Far past any recursion limit, so the verdict does not hang on how
#: deep the caller's stack already is.
_DEEP = 100_000

_LINES = st.one_of(
    st.binary(max_size=30),
    st.builds(lambda v: json.dumps(v).encode(), _VALUES),
    st.builds(lambda pre, v, post: pre + json.dumps(v).encode() + post,
              st.sampled_from([b"", b" ", b"\t", b"\r", b"\xef\xbb\xbf",
                               b"\x00", b"{}"]),
              st.dictionaries(st.text(max_size=4), _VALUES, max_size=3),
              st.sampled_from([b"", b" ", b"\r", b" x", b"{}", b",",
                               b"\xff"])),
    st.sampled_from([
        b"{} x", b"{}{}", b"[1]", b"1", b"null", b'"s"', b"NaN",
        b'{"a":NaN}', b'{"a":Infinity}', b"\xef\xbb\xbf{}", b"\xff\xfe{}",
        b'{"a":"\xe9"}', b'{"a":"\\ud800"}', b'{"a":"\x01"}',
        b"[" * _DEEP + b"]" * _DEEP, b'{"a":' * _DEEP + b"1" + b"}" * _DEEP,
        b'{"a":' * 50 + b"1" + b"}" * 50]))


@settings(max_examples=150, deadline=None)
@given(lines=st.lists(_LINES, max_size=8), tail=st.binary(max_size=12),
       split=st.integers(0, 8))
def test_read_from_decodes_every_line_like_json_loads(lines, tail, split):
    """Any file bytes, a torn tail included, read whole or from a line
    boundary: the records, line numbers, damage messages, torn flag,
    offset and line count are those of a plain decode of each line."""
    data = b"".join(line + b"\n" for line in lines) + tail
    # A boundary ``split`` terminated lines in (never mid-line).
    cut = 0
    for _ in range(split):
        nl = data.find(b"\n", cut)
        if nl < 0:
            break
        cut = nl + 1
    prior = data[:cut].count(b"\n")
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "log.jsonl"
        path.write_bytes(data)
        log = AppendLog(path)
        whole = log.read_from()
        part = log.read_from(whole.ino, cut, prior)
    assert _fields(whole) == reference_read(data)
    records, numbers, damaged, torn, offset, line = reference_read(
        data[cut:], prior)
    assert _fields(part) == (records, numbers, damaged, torn, cut + offset,
                             line)
    assert not part.rewound


def _fields(tail) -> tuple:
    return (tail.records, tail.numbers, tail.damaged, tail.torn,
            tail.offset, tail.line)
