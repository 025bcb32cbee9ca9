"""Crash-consistency gates: the checks that replaced the retired CC
rules, each shown to fire when the property it guards is broken and
to stay quiet on the package as shipped."""

import contextlib
import importlib
import json
import os
import pathlib
import re

import pytest

from repro import durable
from repro.chaos import (
    CRASH_POINTS,
    WRITE_SITES,
    ChaosInjector,
    ChaosSpec,
    SitePolicy,
    chaos_active,
    hooks,
)
from repro.cli import main
from repro.errors import ConfigurationError, CrashInjected
from repro.perf.cache import RunCache
from repro.platform import RunSpec, get_platform
from repro.service import JobQueue, JobSpec, Worker
from repro.service.journal import FOLD

from .test_durable import (
    FIXTURES,
    PACKAGE_DIR,
    leaked_descriptors,
    site_primitives,
    syscall_order,
    uncontained_syscalls,
    unsynced_writes,
)
from .test_service_fold import fold_coverage_problems

ROOT = pathlib.Path(__file__).resolve().parent.parent


# -- per-rule fixtures -------------------------------------------------
#
# Every CC rule is retired.  Each keeps its test ids, held to the
# run-time check that replaced it: the "positive fixture" is the
# shipped code with the guarded property broken, the "negative" one
# the code as shipped.


class _OsWithout:
    """``os`` as repro.durable sees it, with one syscall deleted."""

    def __init__(self, name):
        self.name = name

    def __getattr__(self, attr):
        if attr == self.name:
            return lambda *args: None
        return getattr(os, attr)


def _unregistered_sites(tmp_path, monkeypatch):
    """Write sites the injector refuses as unregistered."""
    hits = []
    with chaos_active(ChaosInjector(ChaosSpec())):
        for site, call in site_primitives(tmp_path):
            try:
                call()
            except ConfigurationError as exc:
                hits.append(str(exc))
    return hits


#: Write site -> the file its primitive in site_primitives() writes.
_WRITTEN = {"journal.append": "log.jsonl", "telemetry.append": "spool.jsonl",
            "cache.put": "*.tmp", "queue.lease_bump": "claim"}


def _untorn(site, root):
    """Tear the write at ``site``; a problem unless the file it wrote
    holds an unparseable prefix (seed 0 cuts every write after its
    first byte)."""
    root.mkdir(parents=True)
    call = dict(site_primitives(root))[site]
    spec = ChaosSpec(seed=0, sites=(
        SitePolicy(site=site, action="torn-write"),))
    with chaos_active(ChaosInjector(spec)), \
            contextlib.suppress(CrashInjected):
        call()
    for path in root.glob(_WRITTEN[site]):
        try:
            json.loads(path.read_bytes())
        except ValueError:
            return []
    return [f"a torn {site} left its write whole"]


def _untorn_sites(tmp_path, monkeypatch):
    return [hit for site in sorted(WRITE_SITES)
            for hit in _untorn(site, tmp_path / site)]


def _unreached_points(tmp_path, monkeypatch):
    return _unreached(_drive_every_crash_point(tmp_path / "svc"))


#: Module -> source appended to it before the containment scan.
_PLANTED = {}


def _uncontained(tmp_path, monkeypatch):
    return uncontained_syscalls(PACKAGE_DIR, _PLANTED)


def _absorbing(method):
    """``method`` under an ``except BaseException: pass``: the handler
    shape that swallows an injected crash."""
    def absorbed(*args, **kwargs):
        try:
            return method(*args, **kwargs)
        except BaseException:
            pass
    return absorbed


#: Retired rule -> (the run-time check that replaced it, how to break
#: the property that check guards).  The properties: CC001, no module
#: but repro.durable issues a durability syscall; CC002, every durable
#: write is fsynced before it is published; CC003, every write site is
#: in the crash-point catalogue; CC004, every crash point is reached
#: through repro.durable; CC005, a torn write at any write site leaves
#: torn bytes; CC007, no injected kill or io-error is absorbed; CC008,
#: no primitive leaks a descriptor; CC009, every journaled record type
#: has a fold handler.
_RETIRED = {
    "CC001": (_uncontained,
              lambda m: m.setitem(_PLANTED, "perf/cache.py",
                                  "\nos.replace(tmp, path)\n")),
    "CC002": (unsynced_writes,
              lambda m: m.setattr(durable, "os", _OsWithout("fsync"))),
    "CC003": (_unregistered_sites,
              lambda m: m.setattr(hooks, "CRASH_POINTS", tuple(
                  p for p in CRASH_POINTS if p not in WRITE_SITES))),
    "CC004": (_unreached_points,
              lambda m: m.setattr(durable, "get_chaos", lambda: None)),
    "CC005": (_untorn_sites,
              lambda m: m.setattr(durable, "_write",
                                  lambda fd, data, site: os.write(fd,
                                                                  data))),
    "CC007": (lambda tmp_path, m: _absorbed_crashes(tmp_path),
              lambda m: (m.setattr(RunCache, "put",
                                   _absorbing(RunCache.put)),
                         m.setattr(JobQueue, "heartbeat",
                                   _absorbing(JobQueue.heartbeat)))),
    "CC008": (leaked_descriptors,
              lambda m: m.setattr(durable, "os", _OsWithout("close"))),
    "CC009": (fold_coverage_problems,
              lambda m: m.delitem(FOLD, "run")),
}


def _retired_hits(rule_id, broken, tmp_path, monkeypatch):
    check, breakage = _RETIRED[rule_id]
    with monkeypatch.context() as m:
        if broken:
            breakage(m)
        return check(tmp_path, m)


_FIXTURE_RULES = ("CC001", "CC002", "CC003", "CC005", "CC007", "CC008",
                  "CC009")

#: Test ids named after the property each retired rule's check guards.
_FIXTURE_IDS = {
    "CC002": "fsync-before-publish",
    "CC003": "every-write-site-catalogued",
    "CC005": "torn-write-leaves-torn-bytes",
    "CC008": "no-descriptor-leak",
}


def _fixture_id(rule_id):
    return _FIXTURE_IDS.get(rule_id, rule_id)


@pytest.mark.parametrize("rule_id", _FIXTURE_RULES, ids=_fixture_id)
def test_rule_fires_on_positive_fixture(rule_id, tmp_path, monkeypatch):
    assert _retired_hits(rule_id, True, tmp_path, monkeypatch)


@pytest.mark.parametrize("rule_id", _FIXTURE_RULES, ids=_fixture_id)
def test_rule_quiet_on_negative_fixture(rule_id, tmp_path, monkeypatch):
    assert _retired_hits(rule_id, False, tmp_path, monkeypatch) == []


def test_cc001_resolves_import_aliases():
    """``from os import replace as move_into_place`` is still
    ``os.replace``."""
    hits = uncontained_syscalls(FIXTURES / "cc001_pos.py")
    assert "cc001_pos.py:20: move_into_place(tmp, path)" in hits
    assert len(hits) == 5


def test_disconnected_injector_leaves_every_write_site_unreached(
        tmp_path, monkeypatch):
    """Disconnecting repro.durable from the injector leaves every write
    site unreached."""
    # Every write site is a hook in repro.durable.
    assert set(_retired_hits("CC004", True, tmp_path, monkeypatch)) == \
        set(WRITE_SITES)


def test_every_crash_point_is_reached_as_shipped(tmp_path, monkeypatch):
    """As shipped, every crash point is reached."""
    assert _retired_hits("CC004", False, tmp_path, monkeypatch) == []


def test_cc007_sees_through_repro_durable(tmp_path, monkeypatch):
    """A kill at the two points that fire inside a repro.durable
    writer, absorbed by the writer's caller, is caught."""
    hits = _retired_hits("CC007", True, tmp_path, monkeypatch)
    assert {"cache.put kill", "queue.lease_bump kill"} <= set(hits)


# -- control-flow cases: every path through repro.durable --------------


def test_atomic_publish_fsyncs_before_it_replaces(tmp_path, monkeypatch):
    """atomic_publish fsyncs before it replaces."""
    assert syscall_order(monkeypatch, lambda: durable.atomic_publish(
        tmp_path / "entry.json", b"data", durable=True)) == [
        "write", "fsync", "replace"]


def test_atomic_publish_skips_the_fsync_when_not_durable(tmp_path,
                                                         monkeypatch):
    """atomic_publish skips the fsync when not durable."""
    # durable=False (tests, the benchmark) skips every fsync.
    assert syscall_order(monkeypatch, lambda: durable.atomic_publish(
        tmp_path / "entry.json", b"data", durable=False)) == [
        "write", "replace"]


def test_without_fsync_every_publishing_primitive_is_unsynced(
        tmp_path, monkeypatch):
    """Without fsync, every primitive that publishes a write is named
    as unsynced."""
    monkeypatch.setattr(durable, "os", _OsWithout("fsync"))
    assert unsynced_writes(tmp_path, monkeypatch) == [
        "atomic_publish: replace", "AppendLog.append: return",
        "exclusive_create: return"]


def test_failing_read_pread_fstat_or_lseek_leaks_no_descriptor(
        tmp_path, monkeypatch):
    """A failing read, pread, fstat or lseek leaks no descriptor."""
    # The failure paths test_durable.py leaves out: reads and seeks.
    assert leaked_descriptors(tmp_path, monkeypatch, failures=(
        "read", "pread", "fstat", "lseek")) == []


def test_without_close_every_primitive_leaks_under_every_failure(
        tmp_path, monkeypatch):
    """Without close, every primitive leaks under every failure."""
    monkeypatch.setattr(durable, "os", _OsWithout("close"))
    hits = leaked_descriptors(tmp_path, monkeypatch)
    # Every primitive under each failing syscall, every site under
    # each chaos action.
    assert len(hits) == 3 * 6 + 2 * 4


# -- the merged-tree gate ----------------------------------------------


def test_repro_package_is_crash_clean_under_checked_in_baseline(
        tmp_path):
    """The package as shipped: no uncontained syscall, no absorbed
    crash."""
    assert uncontained_syscalls(PACKAGE_DIR) == []
    assert _absorbed_crashes(tmp_path) == []


# -- the chaos catalogue, checked at run time --------------------------

#: Every module whose code evaluates crash points.  engine.py looks
#: get_chaos up in repro.chaos.hooks at call time; the others bind it
#: at import.
HOOK_MODULES = ("repro.service.queue", "repro.service.worker",
                "repro.durable", "repro.chaos.hooks")


def _run_job():
    return JobSpec.for_specs([RunSpec(
        platform=get_platform("ofp-default"), app="Milc", n_nodes=64,
        n_runs=2, seed=3)])


def _drive_every_crash_point(root, injector=None):
    """Submit, claim, heartbeat, publish and complete an experiment
    job and a run job (cache put, telemetry on) through worker
    ``w0``, then break ``w-dead``'s lease, all under ``injector``
    (default: a never-firing schedule at every crash point); returns
    the injector's per-site evaluation counts."""
    if injector is None:
        injector = ChaosInjector(ChaosSpec.everywhere(p=0.0,
                                                      max_fires=0))
    with chaos_active(injector):
        queue = JobQueue(root, durable=False)
        queue.submit(JobSpec.for_experiment("eq1"))
        queue.submit(_run_job())
        Worker(queue, worker_id="w0", poll_interval=0.0, drain=True,
               max_polls=50, telemetry=True).run()
        stranded = queue.submit(JobSpec.for_experiment("eq1", seed=1))
        queue.claim_next("w-dead")
        queue.break_lease(stranded, breaker="w-reaper")
    return injector.evaluations


def _unreached(evaluations, points=CRASH_POINTS):
    return [site for site in points if not evaluations.get(site)]


def _failed_attempts(root):
    """The failed or retried attempts the journal charges to ``w0``
    (the drive's own lease break charges ``w-dead``)."""
    return [r for r in JobQueue(root, durable=False).journal.records()
            if r["type"] in ("retry", "fail") and r["worker"] == "w0"]


def _absorbed_crashes(tmp_path):
    """One ``"<site> <action>"`` per kill or io-error, fired once at a
    crash point during the drive, that nobody observed: neither
    ``CrashInjected`` nor ``OSError`` escaped and the journal shows no
    failed or retried attempt.

    ``cache.put`` + io-error is absorbed by design: the cache is an
    optimisation, so ``RunCache.put`` degrades to a miss
    (docs/CHAOS.md).  There the check is what it leaves behind: no
    published entry and no stray tmp."""
    hits = []
    for site in CRASH_POINTS:
        for action in ("kill", "io-error"):
            root = tmp_path / f"{site}-{action}"
            injector = ChaosInjector(ChaosSpec(sites=(
                SitePolicy(site=site, action=action, max_fires=1),)))
            try:
                _drive_every_crash_point(root, injector)
                escaped = False
            except (CrashInjected, OSError):
                escaped = True
            assert injector.fires[site] == 1, (site, action)
            if escaped or _failed_attempts(root):
                continue
            if (site, action) == ("cache.put", "io-error"):
                hits.extend(f"{site} {action} left {path.name}"
                            for path in sorted((root / "cache").glob("*"))
                            if path.suffix in (".json", ".tmp"))
                continue
            hits.append(f"{site} {action}")
    return hits


def test_every_registered_point_has_a_live_call_site(tmp_path):
    assert _unreached(_drive_every_crash_point(tmp_path / "svc")) == []


def test_removing_any_single_call_site_fails_the_gate(tmp_path,
                                                      monkeypatch):
    lost = set()
    for module in HOOK_MODULES:
        with monkeypatch.context() as m:
            m.setattr(importlib.import_module(module), "get_chaos",
                      lambda: None)
            unreached = _unreached(
                _drive_every_crash_point(tmp_path / module))
        assert unreached, f"dropping the hooks in {module} went unnoticed"
        lost |= set(unreached)
    # Every crash point belongs to a hook some module evaluates.
    assert lost == set(CRASH_POINTS)


def test_phantom_crash_point_fails_the_gate(tmp_path, monkeypatch):
    from repro.chaos import spec

    points = tuple(CRASH_POINTS) + ("queue.ghost",)
    monkeypatch.setattr(hooks, "CRASH_POINTS", points)
    monkeypatch.setattr(spec, "CRASH_POINTS", points)
    evaluations = _drive_every_crash_point(tmp_path / "svc")
    assert _unreached(evaluations, points) == ["queue.ghost"]


def test_unregistered_call_site_fails_the_gate(tmp_path, monkeypatch):
    injector = ChaosInjector(ChaosSpec.everywhere(p=0.0))
    with pytest.raises(ConfigurationError, match="queue.clam"):
        injector.on("queue.clam")
    with pytest.raises(ConfigurationError, match="unregistered"):
        injector.write(-1, b"", "journal.apend")
    # Dropping a point from the catalogue turns its live hook into an
    # unregistered one, even under a schedule that polices nothing.
    monkeypatch.setattr(hooks, "CRASH_POINTS", tuple(
        p for p in CRASH_POINTS if p != "queue.submit"))
    queue = JobQueue(tmp_path / "svc", durable=False)
    with chaos_active(ChaosInjector(ChaosSpec())):
        with pytest.raises(ConfigurationError, match="queue.submit"):
            queue.submit(_run_job())


def test_removed_crash_point_fails_repro_serve_chaos(tmp_path, monkeypatch,
                                                    capsys):
    # End-to-end: a chaos run over a live hook whose point was dropped
    # from the catalogue exits 2 naming it, instead of running with
    # that point silently unpoliced.
    svc = tmp_path / "svc"
    JobQueue(svc, durable=False).submit(JobSpec.for_experiment("eq1"))
    chaos_file = tmp_path / "chaos.json"
    chaos_file.write_text(ChaosSpec().canonical_json())
    monkeypatch.setattr(hooks, "CRASH_POINTS", tuple(
        p for p in CRASH_POINTS if p != "queue.claim"))
    assert main(["serve", "--dir", str(svc), "--drain", "--poll", "0",
                 "--chaos", str(chaos_file)]) == 2
    assert "unregistered crash point 'queue.claim'" in \
        capsys.readouterr().err


@pytest.mark.parametrize("site", sorted(WRITE_SITES))
def test_torn_write_at_every_write_site_leaves_torn_bytes(tmp_path, site):
    """A write site must wrap a real write(2): tearing it leaves a log
    that ends mid-line, a claim that cannot be parsed, or a stray cache
    tmp that was never published."""
    assert _untorn(site, tmp_path / "svc") == []


def test_chaos_docs_table_matches_the_catalogue():
    """docs/CHAOS.md lists exactly CRASH_POINTS, and marks exactly
    WRITE_SITES as write sites."""
    rows = {}
    for line in (ROOT / "docs" / "CHAOS.md").read_text().splitlines():
        match = re.match(r"^\|\s*`([a-z_.]+\.[a-z_.]+)`\s*\|(.*)$", line)
        if match:
            rows[match.group(1)] = match.group(2)
    assert sorted(rows) == sorted(CRASH_POINTS)
    assert {site for site, rest in rows.items()
            if "(write site)" in rest} == set(WRITE_SITES)
