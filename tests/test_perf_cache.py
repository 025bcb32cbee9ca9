"""Run cache: content addressing, exact replay, invalidation."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.kernel.tuning import untuned
from repro.obs.metrics import MetricsRegistry
from repro.perf import RunCache, RunCell, execute_cells, perf_context
from repro.perf.cache import default_cache_dir, result_from_dict, \
    result_to_dict
from repro.platform import RunSpec, get_platform

OFP = get_platform("ofp-default")


def ofp_cell(n_nodes=64, n_runs=2, seed=5, app="LQCD", platform=OFP):
    return RunCell(RunSpec(platform=platform, app=app, n_nodes=n_nodes,
                           n_runs=n_runs, seed=seed))


def ofp_cells(node_counts):
    """Single-trial LQCD cells on OFP, one per node count."""
    return [ofp_cell(n, n_runs=1) for n in node_counts]


@pytest.fixture
def cell():
    return ofp_cell()


# -- fingerprints -----------------------------------------------------


def test_run_key_invalidates_on_coordinates(cell):
    base = cell.key()
    for other in (
        ofp_cell(seed=6),
        ofp_cell(n_nodes=128),
        ofp_cell(n_runs=3),
        ofp_cell(app="Milc"),
    ):
        assert other.key() != base


def test_run_key_invalidates_on_tuning(cell):
    other = ofp_cell(platform=OFP.with_tuning(untuned()))
    assert other.key() != cell.key()


def test_same_config_different_instances_share_a_key(cell):
    rebuilt = RunSpec.from_json(cell.spec.to_json())
    assert rebuilt is not cell.spec
    assert RunCell(rebuilt).key() == cell.key()


# -- serialization ----------------------------------------------------


def test_result_roundtrip_is_exact(cell):
    [result] = execute_cells([cell])
    replayed = result_from_dict(json.loads(json.dumps(
        result_to_dict(result))))
    assert replayed == result


# -- cache tiers ------------------------------------------------------


def test_memory_tier(cell):
    cache = RunCache()
    with perf_context(cache=cache):
        [result] = execute_cells([cell])
    assert cell.key() in cache
    assert cache.get(cell.key()) is result
    assert len(cache) == 1


def test_disk_tier_replays_across_instances(tmp_path, cell):
    with perf_context(cache=RunCache(tmp_path)):
        [computed] = execute_cells([cell])
    # A fresh instance (fresh process, in effect) replays from disk.
    cold = RunCache(tmp_path)
    replayed = cold.get(cell.key())
    assert replayed == computed
    counters = MetricsRegistry()
    with perf_context(cache=RunCache(tmp_path), counters=counters):
        [via_executor] = execute_cells([cell])
    assert via_executor == computed
    assert counters.counts["cache.hits"] == 1
    assert "cache.misses" not in counters.counts


def test_corrupt_entry_is_a_miss(tmp_path, cell):
    cache = RunCache(tmp_path)
    with perf_context(cache=cache):
        [computed] = execute_cells([cell])
    path = tmp_path / f"{cell.key()}.json"
    path.write_text("{truncated")
    assert RunCache(tmp_path).get(cell.key()) is None
    # The next populated run overwrites the corrupt entry.
    with perf_context(cache=RunCache(tmp_path)):
        [again] = execute_cells([cell])
    assert again == computed
    assert RunCache(tmp_path).get(cell.key()) == computed


def test_clear_and_info(tmp_path, cell):
    cache = RunCache(tmp_path)
    with perf_context(cache=cache):
        execute_cells([cell])
    info = cache.info()
    assert info["directory"] == str(tmp_path)
    assert info["disk_entries"] == 1
    assert cache.clear() == 1
    assert len(cache) == 0
    assert cache.get(cell.key()) is None


def test_malformed_keys_rejected(tmp_path):
    cache = RunCache(tmp_path)
    with pytest.raises(ConfigurationError):
        cache.get("../escape")


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
    assert default_cache_dir() == tmp_path / "alt"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert default_cache_dir().name == "repro-runs"


def test_hit_rate_counter(tmp_path, cell):
    counters = MetricsRegistry()
    with perf_context(cache=RunCache(tmp_path), counters=counters):
        execute_cells([cell])
        execute_cells([cell])
    assert counters.counts["cache.misses"] == 1
    assert counters.counts["cache.hits"] == 1
    assert counters.hit_rate() == pytest.approx(0.5)


# -- corruption containment -------------------------------------------


def test_corrupt_entry_is_quarantined_not_deleted(tmp_path, cell):
    cache = RunCache(tmp_path)
    with perf_context(cache=cache):
        execute_cells([cell])
    path = tmp_path / f"{cell.key()}.json"
    path.write_text("{truncated")
    fresh = RunCache(tmp_path)
    assert fresh.get(cell.key()) is None
    assert fresh.quarantined == 1
    moved = tmp_path / "quarantine" / path.name
    assert moved.read_text() == "{truncated"  # bytes kept for post-mortem
    assert not path.exists()


def test_structurally_invalid_entry_is_quarantined(tmp_path, cell):
    cache = RunCache(tmp_path)
    with perf_context(cache=cache):
        execute_cells([cell])
    path = tmp_path / f"{cell.key()}.json"
    # Valid JSON, wrong shape: times/breakdown missing.
    path.write_text(json.dumps({"result": {"app": "LQCD"}}))
    fresh = RunCache(tmp_path)
    assert fresh.get(cell.key()) is None
    assert fresh.quarantined == 1


def test_quarantine_name_collisions_keep_both(tmp_path, cell):
    cache = RunCache(tmp_path)
    with perf_context(cache=cache):
        execute_cells([cell])
    path = tmp_path / f"{cell.key()}.json"
    for i in range(2):
        path.write_text(f"corrupt #{i}")
        assert RunCache(tmp_path).get(cell.key()) is None
    qdir = tmp_path / "quarantine"
    assert len(list(qdir.iterdir())) == 2


def test_quarantined_entries_do_not_pollute_len_or_clear(tmp_path, cell):
    cache = RunCache(tmp_path)
    with perf_context(cache=cache):
        execute_cells([cell])
    (tmp_path / f"{cell.key()}.json").write_text("junk")
    fresh = RunCache(tmp_path)
    assert fresh.get(cell.key()) is None
    assert len(fresh) == 0
    assert fresh.clear() == 0
    assert (tmp_path / "quarantine" / f"{cell.key()}.json").exists()
    assert fresh.info()["quarantined_entries"] == 1


def test_sweep_survives_corrupt_entry(tmp_path):
    """One bad file never kills a sweep: corrupt cell recomputed, the
    rest replayed from disk."""
    cells = ofp_cells((16, 64, 256))
    with perf_context(cache=RunCache(tmp_path)):
        first = execute_cells(cells)
    (tmp_path / f"{cells[1].key()}.json").write_text("{nope")
    counters = MetricsRegistry()
    with perf_context(cache=RunCache(tmp_path), counters=counters):
        replay = execute_cells(cells)
    assert counters.counts["cache.hits"] == 2
    assert counters.counts["cache.misses"] == 1
    assert replay == first
    # The recompute healed the disk tier.
    assert RunCache(tmp_path).get(cells[1].key()) == first[1]


def test_verify_reports_and_quarantines(tmp_path):
    cells = ofp_cells((16, 64, 256))
    with perf_context(cache=RunCache(tmp_path)):
        execute_cells(cells)
    bad = tmp_path / f"{cells[0].key()}.json"
    bad.write_text("{nope")

    report = RunCache(tmp_path).verify()
    assert report["checked"] == 3
    assert report["ok"] == 2
    assert report["quarantined"] == [bad.name]
    # A second pass over the healed tier is clean.
    report2 = RunCache(tmp_path).verify()
    assert report2 == {"checked": 2, "ok": 2, "quarantined": []}


def test_verify_on_memory_only_cache():
    assert RunCache().verify() == {"checked": 0, "ok": 0,
                                   "quarantined": []}


# -- garbage collection -------------------------------------------------


def _age(path, days):
    import os
    past = path.stat().st_mtime - days * 86400.0
    os.utime(path, (past, past))


def test_gc_requires_a_bound(tmp_path):
    with pytest.raises(ConfigurationError, match="bound"):
        RunCache(tmp_path).gc()
    with pytest.raises(ConfigurationError):
        RunCache(tmp_path).gc(max_age_days=-1)
    with pytest.raises(ConfigurationError):
        RunCache(tmp_path).gc(max_bytes=-1)


def test_gc_by_age_prunes_old_entries(tmp_path):
    cells = ofp_cells((16, 64))
    cache = RunCache(tmp_path)
    with perf_context(cache=cache):
        execute_cells(cells)
    old = tmp_path / f"{cells[0].key()}.json"
    _age(old, days=30)
    report = cache.gc(max_age_days=7)
    assert report["checked"] == 2
    assert report["removed"] == 1 and report["kept"] == 1
    assert report["reclaimed_bytes"] > 0
    assert not old.exists()
    # The pruned entry is a true miss (memory tier dropped too)...
    assert cache.get(cells[0].key()) is None
    # ...while the survivor still replays.
    assert RunCache(tmp_path).get(cells[1].key()) is not None


def test_gc_by_size_evicts_oldest_first(tmp_path):
    cells = ofp_cells((16, 64, 256))
    cache = RunCache(tmp_path)
    with perf_context(cache=cache):
        execute_cells(cells)
    paths = [tmp_path / f"{c.key()}.json" for c in cells]
    for i, path in enumerate(paths):
        _age(path, days=len(paths) - i)  # paths[0] is the oldest
    keep_budget = paths[2].stat().st_size
    report = cache.gc(max_bytes=keep_budget)
    assert report["removed"] == 2
    assert [p.exists() for p in paths] == [False, False, True]


def test_gc_zero_budget_clears_the_disk_tier(tmp_path, cell):
    cache = RunCache(tmp_path)
    with perf_context(cache=cache):
        execute_cells([cell])
    report = cache.gc(max_bytes=0)
    assert report == {"checked": 1, "removed": 1, "kept": 0,
                      "reclaimed_bytes": report["reclaimed_bytes"]}
    assert report["reclaimed_bytes"] > 0
    assert not list(tmp_path.glob("*.json"))


def test_gc_never_touches_quarantine(tmp_path, cell):
    cache = RunCache(tmp_path)
    with perf_context(cache=cache):
        execute_cells([cell])
    path = tmp_path / f"{cell.key()}.json"
    path.write_text("{corrupt")
    assert RunCache(tmp_path).get(cell.key()) is None  # quarantines
    quarantined = tmp_path / "quarantine" / path.name
    _age(quarantined, days=365)
    report = RunCache(tmp_path).gc(max_age_days=1, max_bytes=0)
    assert report["checked"] == 0  # the disk tier is already empty
    assert quarantined.read_text() == "{corrupt"


def test_gc_on_memory_only_cache_is_a_noop():
    assert RunCache().gc(max_bytes=0) == {
        "checked": 0, "removed": 0, "kept": 0, "reclaimed_bytes": 0}


def test_cli_cache_gc(tmp_path, cell, capsys):
    from repro.cli import main

    with perf_context(cache=RunCache(tmp_path)):
        execute_cells([cell])
    assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                 "--max-bytes", "0"]) == 0
    out = capsys.readouterr().out
    assert "removed 1 of 1" in out
    assert "quarantine untouched" in out


# -- durability (CC002 regression) --------------------------------------


def _captured_result(cell):
    mem = RunCache()
    with perf_context(cache=mem):
        execute_cells([cell])
    return next(iter(mem._memory.items()))


def test_put_fsyncs_before_atomic_publish(tmp_path, cell, monkeypatch):
    # Regression for the CC002 finding the crash analyzer surfaced:
    # the rename is only atomic for bytes that reached the disk, so
    # the fsync must precede os.replace on the durable path.
    import os

    key, result = _captured_result(cell)
    cache = RunCache(tmp_path)
    events = []
    real_fsync, real_replace = os.fsync, os.replace
    monkeypatch.setattr(
        os, "fsync",
        lambda fd: (events.append("fsync"), real_fsync(fd))[1])
    monkeypatch.setattr(
        os, "replace",
        lambda a, b: (events.append("replace"), real_replace(a, b))[1])
    cache.put(key, result)
    assert "fsync" in events and "replace" in events
    assert events.index("fsync") < events.index("replace")
    fresh = RunCache(tmp_path)
    assert fresh.get(key) == result


def test_put_durable_false_skips_fsync(tmp_path, cell, monkeypatch):
    import os

    key, result = _captured_result(cell)
    cache = RunCache(tmp_path, durable=False)
    events = []
    real_replace = os.replace
    monkeypatch.setattr(os, "fsync",
                        lambda fd: events.append("fsync"))
    monkeypatch.setattr(
        os, "replace",
        lambda a, b: (events.append("replace"), real_replace(a, b))[1])
    cache.put(key, result)
    assert events == ["replace"]
    assert RunCache(tmp_path).get(key) == result
