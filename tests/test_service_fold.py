"""The journal fold: one dispatch table, memoised incrementally.

``JobQueue`` folds the journal through a
:class:`~repro.service.journal.JournalFold` that parses only the lines
appended since its last look.  These tests hold the memo to a cold
fold of the same bytes through torn tails, interior damage, replaced
and truncated files and interleaved writers, and hold the dispatch
table :data:`~repro.service.journal.FOLD` to every record type the
package journals (the check that replaced crash rule CC009).
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import pathlib
import re
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.durable import AppendLog
from repro.errors import JournalCorruptionError
from repro.obs.export import canonical_json
from repro.obs.fleet import ROLLUP_TYPES, FleetAggregator
from repro.platform import RunSpec, get_platform
from repro.service import (JobQueue, JobSpec, JobState, Worker,
                           verify_service)
from repro.service.journal import FOLD

PACKAGE_DIR = pathlib.Path(repro.__file__).resolve().parent


def _queue(root, **kwargs):
    kwargs.setdefault("durable", False)
    return JobQueue(root, **kwargs)


def _cold(queue):
    """The table a fresh fold of the same directory reads."""
    return _rows(JobQueue(queue.root, create=False).table())


def _rows(table):
    return {job_id: view.to_dict() for job_id, view in table.items()}


def _busy_queue(root, jobs=3):
    """A queue with ``jobs`` submitted jobs, the first one claimed and
    running."""
    queue = _queue(root)
    for _ in range(jobs):
        queue.submit(JobSpec.for_experiment("eq1"))
    job_id, _, attempt = queue.claim_next("w0")
    queue.mark_running(job_id, "w0", attempt)
    return queue


def _line(record):
    return (canonical_json(record) + "\n").encode()


# -- the memo against a cold fold ----------------------------------------


def test_warm_memo_torn_tail_at_every_byte(tmp_path):
    """A torn record never reaches a warm memo, at any cut, and the
    offset waits at the last newline until the line is finished."""
    queue = _busy_queue(tmp_path / "svc")
    path = queue.journal.path
    intact = _rows(queue.table())
    size = path.stat().st_size
    job_id = sorted(intact)[1]
    line = _line({"type": "claim", "job": job_id, "worker": "w1",
                  "attempt": 0})
    for cut in range(len(line)):
        with path.open("ab") as fh:
            fh.write(line[:cut])
        assert _rows(queue.table()) == intact, f"cut at byte {cut}"
        assert queue.fold.offset == size, f"cut at byte {cut}"
        with path.open("ab") as fh:
            fh.write(line[cut:])
        completed = _rows(queue.table())
        assert completed[job_id]["state"] == "claimed", f"cut at {cut}"
        assert completed == _cold(queue)
        os.truncate(path, size)
        assert _rows(queue.table()) == intact  # truncated: refolded


def test_interior_corruption_past_the_offset_names_the_absolute_line(
        tmp_path):
    queue = _busy_queue(tmp_path / "svc")
    queue.table()
    lines = queue.fold.line
    with queue.journal.path.open("ab") as fh:
        fh.write(b"{broken\n")
        fh.write(_line({"type": "done", "job": "j000000-x"}))
    with pytest.raises(JournalCorruptionError) as warm:
        queue.table()
    assert f"journal.jsonl:{lines + 1}: unparseable line" in str(warm.value)
    with pytest.raises(JournalCorruptionError) as cold:
        queue.journal.records()
    assert str(warm.value) == str(cold.value)
    # The memo is untouched, so the next look fails the same way.
    assert queue.fold.line == lines
    with pytest.raises(JournalCorruptionError):
        queue.table()


def test_replaced_journal_is_refolded(tmp_path):
    """A new inode is a new history, even when it is longer."""
    queue = _busy_queue(tmp_path / "svc")
    queue.table()
    other = _queue(tmp_path / "other")
    for _ in range(6):
        other.submit(JobSpec.for_experiment("eq1"))
    assert other.journal.path.stat().st_size > queue.fold.offset
    os.replace(other.journal.path, queue.journal.path)
    assert _rows(queue.table()) == _cold(queue)
    assert {v["state"] for v in _rows(queue.table()).values()} == {
        "queued"}


def test_quarantined_journal_empties_the_table(tmp_path):
    queue = _busy_queue(tmp_path / "svc")
    assert queue.table()
    os.replace(queue.journal.path, tmp_path / "journal.jsonl.bak")
    assert queue.table() == {}
    assert queue.fold.submits == 0


def test_journal_truncated_below_the_offset_is_refolded(tmp_path):
    queue = _busy_queue(tmp_path / "svc")
    queue.table()
    path = queue.journal.path
    first = path.read_bytes().split(b"\n")[0] + b"\n"
    ino = path.stat().st_ino
    path.write_bytes(first)  # same inode, shorter than the offset
    assert path.stat().st_ino == ino
    assert _rows(queue.table()) == _cold(queue)
    assert len(queue.table()) == 1


def test_returned_views_cannot_change_the_memo(tmp_path):
    queue = _busy_queue(tmp_path / "svc")
    table = queue.table()
    job_id = sorted(table)[0]
    before = _rows(table)
    table[job_id].state = JobState.DONE
    table[job_id].attempts = 99
    del table[sorted(table)[1]]
    view = queue.job(job_id)
    view.worker = "intruder"
    assert _rows(queue.table()) == before
    assert queue.job(job_id).worker == "w0"


def test_submit_ordinal_counts_every_submit_record(tmp_path):
    """``submit`` numbers a job from the memo's count of submit
    records, including ones appended by another queue instance."""
    queue = _queue(tmp_path / "svc")
    first = queue.submit(JobSpec.for_experiment("eq1"))
    queue.claim_next("w0")
    _queue(queue.root).submit(JobSpec.for_experiment("table1"))
    third = queue.submit(JobSpec.for_experiment("fig1"))
    assert first.startswith("j000000-") and third.startswith("j000002-")
    assert queue.fold.update().submits == 3


_OPS = st.lists(st.tuples(st.integers(0, 1),
                          st.sampled_from(["submit", "claim", "run",
                                           "done", "retry", "table"])),
                min_size=1, max_size=25)


@settings(max_examples=40, deadline=None)
@given(ops=_OPS)
def test_two_queues_interleaved_always_match_a_cold_fold(ops):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        queues = [_queue(root), _queue(root)]
        for index, op in ops:
            queue = queues[index]
            worker = f"w{index}"
            states = {j: v.state for j, v in
                      JobQueue(root, create=False).table().items()}
            claimed = sorted(j for j, s in states.items()
                             if s is JobState.CLAIMED)
            running = sorted(j for j, s in states.items()
                             if s is JobState.RUNNING)
            if op == "submit":
                queue.submit(JobSpec.for_experiment("eq1"))
            elif op == "claim":
                queue.claim_next(worker)
            elif op == "run" and claimed:
                queue.mark_running(claimed[0], worker, 0)
            elif op == "done" and running:
                queue.complete(running[0], worker, 0)
            elif op == "retry" and running:
                queue.fail_attempt(running[0], worker, 0, "boom")
            elif op == "table":
                assert _rows(queue.table()) == _cold(queue)
        for queue in queues:
            assert _rows(queue.table()) == _cold(queue)
            assert queue.fold.records == len(queue.journal.records())


# -- fsck reads through the memo -----------------------------------------


def test_verify_reads_the_journal_once(tmp_path, monkeypatch):
    queue = _busy_queue(tmp_path / "svc")
    offsets = []
    real = AppendLog.read_from

    def spy(self, ino=0, offset=0, line=0):
        if self.path == queue.journal.path:
            offsets.append(offset)
        return real(self, ino, offset, line)

    monkeypatch.setattr(AppendLog, "read_from", spy)
    report = verify_service(queue.root)
    assert report["clean"]
    assert report["checked"]["journal_records"] == 5
    # One read from the start; the later looks start at its end.
    assert offsets[0] == 0 and len(offsets) == 3
    assert set(offsets[1:]) == {queue.journal.path.stat().st_size}


# -- one dispatch table, every record type -------------------------------


def _journaled_types(root):
    """Problems with, and the set of, the literal ``type`` of every
    ``<...>journal.append({...})`` call under ``root``."""
    problems, types = [], set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "append" and call.args
                    and isinstance(call.args[0], ast.Dict)):
                continue
            receiver = call.func.value
            name = receiver.attr if isinstance(receiver, ast.Attribute) \
                else getattr(receiver, "id", "")
            if name != "journal":
                continue
            where = f"{path.relative_to(root)}:{call.lineno}"
            for key, value in zip(call.args[0].keys, call.args[0].values):
                if isinstance(key, ast.Constant) and key.value == "type":
                    if isinstance(value, ast.Constant) and \
                            isinstance(value.value, str):
                        types.add(value.value)
                    else:
                        problems.append(f"{where}: non-literal type")
    return problems, types


def _rollups(root, records):
    queue = _queue(root)
    for record in records:
        queue.journal.append(record)
    return FleetAggregator(queue).rollups()


def fold_coverage_problems(tmp_path, monkeypatch=None):
    """One line per break in fold coverage: a journaled record type
    outside :data:`FOLD` (or a ``FOLD`` key nothing journals), a
    ``FOLD`` key the queue cannot fold or ``FleetAggregator.rollups``
    does not count, and an fsck that stopped replaying through
    ``queue.table()``."""
    problems, types = _journaled_types(PACKAGE_DIR)
    problems += [f"journaled type {t!r} is not a FOLD key"
                 for t in sorted(types - set(FOLD))]
    problems += [f"FOLD key {t!r} is never journaled"
                 for t in sorted(set(FOLD) - types)]
    problems += [f"rollups ignore {t!r} records"
                 for t in sorted(set(FOLD) - set(ROLLUP_TYPES))]
    problems += [f"rollups count {t!r}, which is not a FOLD key"
                 for t in sorted(set(ROLLUP_TYPES) - set(FOLD))]
    submit = {"type": "submit", "job": "j000000-000000000a", "kind": "run"}
    _rollups(tmp_path / "base", [submit])
    for rtype in sorted(FOLD):
        record = {"type": rtype, "job": "j000000-000000000a", "worker": "w",
                  "attempt": 0, "error": "e"}
        try:
            _rollups(tmp_path / rtype, [submit, record])
        except JournalCorruptionError as exc:
            problems.append(f"{rtype!r} does not fold: {exc}")
    calls = []
    real = JobQueue.table
    with pytest.MonkeyPatch.context() as m:
        m.setattr(JobQueue, "table",
                  lambda self: calls.append(1) or real(self))
        verify_service(tmp_path / "base")
    if not calls:
        problems.append("fsck no longer replays through queue.table()")
    return problems


def test_every_journaled_type_folds_everywhere(tmp_path):
    assert fold_coverage_problems(tmp_path) == []


#: Parseable journal lines the fold must refuse, with what it says.
BAD_RECORDS = [
    (b'{"job":"j000000-0123456789","type":"bogus"}',
     "unknown record type 'bogus'"),
    (b'{"job":"j000000-0123456789","type":["x"]}',
     r"unknown record type \['x'\]"),
    (b'{"attempt":1e999,"job":"j000000-0123456789","type":"claim"}',
     "malformed 'claim' record"),
]
BAD_IDS = ["unknown-type", "list-type", "overflowing-attempt"]


@pytest.mark.parametrize("line,problem", BAD_RECORDS, ids=BAD_IDS)
def test_unknown_record_type_is_corruption(tmp_path, line, problem):
    queue = _busy_queue(tmp_path / "svc")
    queue.table()
    lines = queue.fold.line
    with queue.journal.path.open("ab") as fh:
        fh.write(line + b"\n")
    with pytest.raises(JournalCorruptionError,
                       match=rf":{lines + 1}: {problem}"):
        queue.table()
    with pytest.raises(JournalCorruptionError, match=problem):
        JobQueue(queue.root, create=False).table()


@pytest.mark.parametrize("line,problem", BAD_RECORDS, ids=BAD_IDS)
def test_unknown_record_type_exits_2_through_the_cli(tmp_path, capsys,
                                                     line, problem):
    svc = str(tmp_path / "svc")
    assert main(["submit", "--experiment", "eq1", "--dir", svc]) == 0
    with (pathlib.Path(svc) / "journal.jsonl").open("ab") as fh:
        fh.write(line + b"\n")
    capsys.readouterr()
    assert main(["service", "status", "--dir", svc]) == 2
    err = capsys.readouterr().err
    assert "repro: error:" in err
    assert re.search(problem, err)
    assert "Traceback" not in err
    assert main(["service", "verify", "--dir", svc]) == 1
    assert "journal-corrupt" in capsys.readouterr().out


# -- the readers over a damaged journal --------------------------------


@pytest.fixture(scope="module")
def drained(tmp_path_factory):
    """A service dir that drained one run job and one eq1 job."""
    root = tmp_path_factory.mktemp("drained") / "svc"
    queue = _queue(root)
    queue.submit(JobSpec.for_specs([RunSpec(
        platform=get_platform("ofp-default"), app="Milc", n_nodes=64,
        n_runs=2, seed=3)]))
    queue.submit(JobSpec.for_experiment("eq1"))
    Worker(queue, worker_id="w0", poll_interval=0.0, drain=True).run()
    assert queue.drained()
    return root


def _with_journal(drained, root, lines):
    """A copy of ``drained`` at ``root`` whose journal is ``lines``."""
    shutil.copytree(drained, root)
    (root / "journal.jsonl").write_bytes(b"".join(lines))
    return root


def _readers(root, *more):
    """The exit codes of ``status``, ``service verify``, ``service
    report`` and then each of ``more`` over ``root``, with what they
    printed; an exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        codes = [main([*argv, "--dir", str(root)]) for argv in (
            ["status"], ["service", "verify"], ["service", "report"],
            *more)]
    return codes, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("job_id", [
    "", "j000000-0123456789\x00", "../j000000-0123456789",
    "j000000-0123456789/..", "j00000-0123456789", "j000000-0123456789a",
    "j000000-0123456789\n", "j000000-ABCDEF0123", 7])
def test_fold_refuses_an_id_job_id_for_cannot_make(tmp_path, job_id):
    queue = _busy_queue(tmp_path / "svc")
    queue.journal.append({"type": "submit", "job": job_id, "kind": "run"})
    with pytest.raises(JournalCorruptionError,
                       match=re.escape(f"bad job id {job_id!r}")):
        queue.table()


def test_nul_in_a_done_job_id_is_corruption_not_a_traceback(drained,
                                                            tmp_path):
    lines = []
    for line in (drained / "journal.jsonl").read_bytes().splitlines():
        record = json.loads(line)
        if record["type"] == "done":
            record["job"] += "\x00"
        lines.append((canonical_json(record) + "\n").encode())
    codes, out, err = _readers(_with_journal(drained, tmp_path / "svc",
                                             lines))
    assert codes == [2, 1, 2]
    assert "bad job id" in err and "journal-corrupt" in out
    assert "\\u0000" not in out  # verify names no results/<id>\0 path


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


#: Spool lines: any bytes, or a record of a kind the aggregator reads
#: with any JSON value in one of its fields.
_SPOOL_LINES = st.binary(max_size=40) | st.builds(
    lambda kind, key, value: canonical_json(
        {"kind": kind, "source": "w0", key: value}).encode(),
    st.sampled_from(["event", "metrics", "segment"]),
    st.sampled_from(["dropped", "events", "job", "kind", "layers"]), _JSON)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_readers_survive_any_field_value_and_interior_bytes(drained, data):
    """Any JSON value in any record field, any bytes in place of an
    interior line, or any lines and a torn tail in a telemetry spool:
    each reader exits 0, 1 or 2, never a traceback."""
    lines = (drained / "journal.jsonl").read_bytes().splitlines(
        keepends=True)
    fields = sorted({key for line in lines for key in json.loads(line)})
    damage = data.draw(st.sampled_from(["bytes", "field", "spool"]),
                       label="damage")
    spool = b""
    if damage == "spool":
        spool = b"".join(line + b"\n" for line in data.draw(
            st.lists(_SPOOL_LINES, max_size=4), label="spool"))
        spool += data.draw(st.binary(max_size=12), label="spool tail")
    else:
        index = data.draw(st.integers(0, len(lines) - 2), label="line")
        if damage == "bytes":
            lines[index] = data.draw(st.binary(max_size=40)) + b"\n"
        else:
            record = json.loads(lines[index])
            record[data.draw(st.sampled_from(fields))] = data.draw(_JSON)
            lines[index] = (canonical_json(record) + "\n").encode()
    with tempfile.TemporaryDirectory() as tmp:
        root = _with_journal(drained, pathlib.Path(tmp) / "svc", lines)
        if spool:
            (root / "telemetry").mkdir()
            (root / "telemetry" / "w0.jsonl").write_bytes(spool)
        codes, _, err = _readers(
            root, ["service", "report", "--format", "prom"],
            ["service", "report", "--check"], ["service", "top"])
    assert set(codes) <= {0, 1, 2}, err
    assert "Traceback" not in err
