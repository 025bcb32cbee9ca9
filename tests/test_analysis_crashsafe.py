"""Crash-consistency gates: the CC-rule fixtures, the merged-tree
zero-findings assertion, baseline pruning and the CLI surface — plus
the run-time checks that replaced the retired rules, each shown to
fire when the property it guards is broken."""

import contextlib
import importlib
import io
import json
import os
import pathlib
import re

import pytest

import repro
from repro import durable
from repro.analysis.baseline import Baseline
from repro.analysis.crashsafe import (
    CC_RULES,
    DEFAULT_CRASH_BASELINE_PATH,
    crash_findings,
    crash_report,
    run_crash,
)
from repro.analysis.linter import all_rules, run_lint, run_rules
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
from repro.platform import RunSpec, get_platform
from repro.service import JobQueue, JobSpec, Worker
from repro.service.journal import FOLD

from .test_durable import (
    leaked_descriptors,
    site_primitives,
    syscall_order,
    unsynced_writes,
)
from .test_service_fold import fold_coverage_problems

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "crashsafe"
PACKAGE_DIR = pathlib.Path(repro.__file__).resolve().parent
ROOT = pathlib.Path(__file__).resolve().parent.parent


# -- per-rule fixtures -------------------------------------------------
#
# CC001 and CC007 are AST rules with a fixture pair each.  The
# retired rules keep their test ids, held to the run-time check that
# replaced each: the "positive fixture" is the shipped code with the
# guarded property broken, the "negative" one the code as shipped.


def _rule_hits(rule_id, fixture):
    findings, files = crash_findings([FIXTURES / fixture],
                                     only_rules=[rule_id])
    assert files == 1
    return findings


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


#: Retired rule -> (the run-time check that replaced it, how to break
#: the property that check guards).  The properties: CC002, every
#: durable write is fsynced before it is published; CC003, every write
#: site is in the crash-point catalogue; CC004, every crash point is
#: reached through repro.durable; CC005, a torn write at any write site
#: leaves torn bytes; CC008, no primitive leaks a descriptor; CC009,
#: every journaled record type has a fold handler.
_RETIRED = {
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


@pytest.mark.parametrize("rule_id", _FIXTURE_RULES)
def test_rule_fires_on_positive_fixture(rule_id, tmp_path, monkeypatch):
    if rule_id in _RETIRED:
        assert _retired_hits(rule_id, True, tmp_path, monkeypatch)
        return
    findings = _rule_hits(rule_id, f"{rule_id.lower()}_pos.py")
    assert findings, f"{rule_id} did not fire on its positive fixture"
    assert {f.rule_id for f in findings} == {rule_id}


@pytest.mark.parametrize("rule_id", _FIXTURE_RULES)
def test_rule_quiet_on_negative_fixture(rule_id, tmp_path, monkeypatch):
    if rule_id in _RETIRED:
        assert _retired_hits(rule_id, False, tmp_path, monkeypatch) == []
        return
    findings = _rule_hits(rule_id, f"{rule_id.lower()}_neg.py")
    assert findings == [], [f.render() for f in findings]


def test_cc001_resolves_import_aliases():
    snippets = [f.snippet for f in _rule_hits("CC001", "cc001_pos.py")]
    assert "move_into_place(tmp, path)" in snippets
    assert len(snippets) == 5


def test_cc004_fires_on_positive_fixture(tmp_path, monkeypatch):
    """Disconnecting repro.durable from the injector leaves every write
    site unreached."""
    # Every write site is a hook in repro.durable.
    assert set(_retired_hits("CC004", True, tmp_path, monkeypatch)) == \
        set(WRITE_SITES)


def test_cc004_quiet_on_negative_fixture(tmp_path, monkeypatch):
    """As shipped, every crash point is reached."""
    assert _retired_hits("CC004", False, tmp_path, monkeypatch) == []


def test_cc007_sees_through_repro_durable():
    scopes = {f.scope for f in _rule_hits("CC007", "cc007_pos.py")}
    assert {"absorbing_publish", "absorbing_bump",
            "absorbing_conditional"} <= scopes


# -- control-flow cases: every path through repro.durable --------------


def test_cfg_fsync_cut_dominates_replace_under_assumed_durable(
        tmp_path, monkeypatch):
    """atomic_publish fsyncs before it replaces."""
    assert syscall_order(monkeypatch, lambda: durable.atomic_publish(
        tmp_path / "entry.json", b"data", durable=True)) == [
        "write", "fsync", "replace"]


def test_cfg_fsync_not_dominating_without_assumption(tmp_path,
                                                     monkeypatch):
    """atomic_publish skips the fsync when not durable."""
    # durable=False (tests, the benchmark) skips every fsync.
    assert syscall_order(monkeypatch, lambda: durable.atomic_publish(
        tmp_path / "entry.json", b"data", durable=False)) == [
        "write", "replace"]


def test_cfg_missing_fsync_detected(tmp_path, monkeypatch):
    """Without fsync, every primitive that publishes a write is named
    as unsynced."""
    monkeypatch.setattr(durable, "os", _OsWithout("fsync"))
    assert unsynced_writes(tmp_path, monkeypatch) == [
        "atomic_publish: replace", "AppendLog.append: return",
        "exclusive_create: return"]


def test_cfg_finally_close_guards_every_path(tmp_path, monkeypatch):
    """A failing read, pread, fstat or lseek leaks no descriptor."""
    # The failure paths test_durable.py leaves out: reads and seeks.
    assert leaked_descriptors(tmp_path, monkeypatch, failures=(
        "read", "pread", "fstat", "lseek")) == []


def test_cfg_unprotected_close_leaks(tmp_path, monkeypatch):
    """Without close, every primitive leaks under every failure."""
    monkeypatch.setattr(durable, "os", _OsWithout("close"))
    hits = leaked_descriptors(tmp_path, monkeypatch)
    # Every primitive under each failing syscall, every site under
    # each chaos action.
    assert len(hits) == 3 * 6 + 2 * 4


# -- the merged-tree gate ----------------------------------------------


def test_repro_package_is_crash_clean_under_checked_in_baseline():
    baseline = Baseline.load(DEFAULT_CRASH_BASELINE_PATH)
    assert baseline.entries == []  # durable.py needs no exceptions
    report = crash_report([PACKAGE_DIR], baseline=baseline)
    assert report.clean, "\n" + report.render()
    assert report.suppressed == []


def test_crash_cli_clean_and_json(capsys):
    assert main(["analyze", "crash", str(PACKAGE_DIR), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert payload["files_checked"] > 100
    assert "notes" in payload


def test_crash_cli_reports_findings(capsys):
    rc = main(["analyze", "crash", str(FIXTURES / "cc001_pos.py")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "CC001" in out and "os.fsync()" in out


# -- analyze rules -----------------------------------------------------


def test_rules_listing_covers_both_families(capsys):
    assert main(["analyze", "rules", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    ids = {entry["rule"] for entry in payload}
    assert {r.rule_id for r in CC_RULES} <= ids
    assert "DET001" in ids
    families = {entry["family"] for entry in payload}
    assert families == {"crash-consistency", "determinism"}
    for entry in payload:
        assert entry["title"] and entry["fixit"]


def test_rules_text_output():
    buf = io.StringIO()
    assert run_rules(out=buf) == 0
    text = buf.getvalue()
    for rule in all_rules():
        assert rule.rule_id in text


def test_docs_rule_tables_cannot_drift():
    # docs/ANALYSIS.md (hand-written tables) and docs/API.md (generated
    # by tools/gen_api.py from the same registry the CLI prints) must
    # mention every registered rule.
    analysis_md = (ROOT / "docs" / "ANALYSIS.md").read_text()
    api_md = (ROOT / "docs" / "API.md").read_text()
    for rule in all_rules():
        assert rule.rule_id in analysis_md, (
            f"{rule.rule_id} missing from docs/ANALYSIS.md")
        assert rule.rule_id in api_md, (
            f"{rule.rule_id} missing from docs/API.md")


# -- baseline pruning --------------------------------------------------


def test_lint_prune_baseline_rewrites_and_is_idempotent(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text("VALUE = 1\n")
    bl = tmp_path / "baseline.json"
    bl.write_text(json.dumps({
        "comment": "keep me",
        "entries": [{"rule": "DET001", "path": "gone.py", "scope": "f",
                     "snippet": "time.time()",
                     "justification": "code was deleted"}]}))
    buf = io.StringIO()
    rc = run_lint([str(target)], baseline_path=str(bl),
                  prune_baseline=True, out=buf)
    assert rc == 1
    assert "pruned 1 stale baseline entry" in buf.getvalue()
    payload = json.loads(bl.read_text())
    assert payload["entries"] == []
    assert payload["comment"] == "keep me"
    # Idempotent re-run: nothing left to prune, gate is green.
    rc = run_lint([str(target)], baseline_path=str(bl),
                  prune_baseline=True, out=io.StringIO())
    assert rc == 0


def test_crash_prune_baseline_drops_only_stale_entries(tmp_path):
    payload = json.loads(DEFAULT_CRASH_BASELINE_PATH.read_text())
    payload["entries"].append({
        "rule": "CC001", "path": "repro/perf/cache.py",
        "scope": "RunCache.put", "snippet": "os.replace(tmp, path)",
        "justification": "stale: the write moved into repro.durable"})
    bl = tmp_path / "crash_baseline.json"
    bl.write_text(json.dumps(payload))
    buf = io.StringIO()
    rc = run_crash([str(PACKAGE_DIR)], baseline_path=str(bl),
                   prune_baseline=True, out=buf)
    assert rc == 1
    assert "pruned 1 stale baseline entr" in buf.getvalue()
    kept = json.loads(bl.read_text())
    assert kept["entries"] == []
    assert kept["comment"] == payload["comment"]
    rc = run_crash([str(PACKAGE_DIR)], baseline_path=str(bl),
                   prune_baseline=True, out=io.StringIO())
    assert rc == 0


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


def _drive_every_crash_point(root):
    """Submit, claim, heartbeat, publish and complete an experiment
    job and a run job (cache put, telemetry on), then break a lease,
    all under a never-firing schedule at every crash point; returns
    the injector's per-site evaluation counts."""
    injector = ChaosInjector(ChaosSpec.everywhere(p=0.0, max_fires=0))
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
