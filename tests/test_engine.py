"""ExecutionEngine: the single RunSpec -> RunResult path.

The tentpole guarantee: every front door (library call, one-shot CLI,
experiment registry, exporter, service worker) runs through the same
engine and produces identical results for identical inputs, whatever
the jobs/cache configuration.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.engine import ExecutionEngine
from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS, run_all, run_experiment, summary
from repro.experiments.export import export_all, export_json
from repro.obs.metrics import MetricsRegistry
from repro.perf import PerfContext, RunCache, get_context, perf_context
from repro.platform import RunSpec, get_platform, run_cells


def _spec(app="Milc", nodes=64, seed=3):
    return RunSpec(platform=get_platform("ofp-default"), app=app,
                   n_nodes=nodes, n_runs=2, seed=seed)


def test_ambient_engine_matches_direct_run_cells():
    spec = _spec()
    direct = run_cells([spec])[0]
    via_engine = ExecutionEngine().run_spec(spec)
    assert via_engine == direct


def test_configured_engine_is_byte_identical_to_ambient():
    specs = [_spec(nodes=n) for n in (32, 64)]
    serial = ExecutionEngine().run_specs(specs)
    parallel = ExecutionEngine.from_options(jobs=2).run_specs(specs)
    assert parallel == serial


def test_engine_session_installs_and_restores_context(tmp_path):
    cache = RunCache(tmp_path / "cache")
    counters = MetricsRegistry()
    engine = ExecutionEngine.from_options(jobs=2, cache=cache,
                                          counters=counters)
    base = get_context()
    with engine.session() as ctx:
        assert get_context() is ctx
        assert ctx.jobs == 2
        assert ctx.cache is cache
        assert ctx.counters is counters
    assert get_context() is base


def test_ambient_engine_session_inherits_installed_context(tmp_path):
    cache = RunCache(tmp_path / "cache")
    with perf_context(cache=cache) as outer:
        with ExecutionEngine().session() as ctx:
            assert ctx is outer
            assert ctx.cache is cache


def test_nested_engine_sessions_share_one_context():
    engine = ExecutionEngine.from_options(jobs=2)
    with engine.session() as outer:
        with engine.session() as inner:
            # Re-entry is a pass-through: same context, same pool.
            assert inner is outer


def test_engine_run_experiment_matches_registry_path():
    via_registry = run_experiment("eq1")
    via_engine = ExecutionEngine().run_experiment("eq1")
    assert via_engine.render() == via_registry.render()


def test_engine_rejects_unknown_experiment():
    with pytest.raises(ConfigurationError, match="fig99"):
        ExecutionEngine().run_experiment("fig99")


def test_engine_rejects_platform_on_fixed_experiments():
    with pytest.raises(ConfigurationError, match="platform-param"):
        ExecutionEngine().run_experiment(
            "table1", platform=get_platform("a64fx-testbed"))


def test_engine_export_matches_cli_export_bytes(tmp_path):
    """export via a configured engine == export via the ambient one,
    byte for byte (the property the service golden test builds on)."""
    a = tmp_path / "ambient"
    b = tmp_path / "configured"
    ExecutionEngine().export_experiments(a, ids=["eq1"])
    cache = RunCache(tmp_path / "cache")
    ExecutionEngine.from_options(jobs=2, cache=cache).export_experiments(
        b, ids=["eq1"])
    files_a = sorted(p.name for p in a.iterdir())
    files_b = sorted(p.name for p in b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_engine_options_are_frozen():
    options = PerfContext(jobs=2)
    with pytest.raises(Exception):
        options.jobs = 4  # type: ignore[misc]


def test_perf_context_normalises_knobs_once():
    ctx = PerfContext(jobs=0, max_retries=-3, max_adaptive_runs=0)
    assert (ctx.jobs, ctx.max_retries, ctx.max_adaptive_runs) == (1, 0, 1)


def test_engine_session_installs_its_options_object():
    engine = ExecutionEngine.from_options(jobs=2)
    with engine.session() as ctx:
        assert ctx is engine.options is get_context()


def test_broken_pool_does_not_leak_into_the_next_session():
    engine = ExecutionEngine.from_options(jobs=2)
    with engine.session() as ctx:
        ctx.mark_pool_broken()
        assert ctx.pool() is None
    with engine.session() as ctx:
        assert ctx.pool() is not None


# -- one result per experiment per session ------------------------------

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _cells(fn) -> int:
    """How many sweep cells ``fn`` sends to the executor."""
    counters = MetricsRegistry()
    with perf_context(counters=counters):
        fn()
    return counters.counts.get("executor.cells", 0)


def test_run_all_summary_matches_standalone_golden(tmp_path):
    result = run_all(fast=True, seed=0)["summary"]
    assert result.text.encode("utf-8") == \
        (GOLDEN / "summary_fast_seed0.txt").read_bytes()
    assert export_json(result, tmp_path).read_bytes() == \
        (GOLDEN / "summary_fast_seed0.json").read_bytes()


def test_export_all_summary_matches_standalone_golden(tmp_path):
    export_all(tmp_path, fast=True, seed=0)
    assert (tmp_path / "summary.json").read_bytes() == \
        (GOLDEN / "summary_fast_seed0.json").read_bytes()
    # The standalone text is the golden (test_artefact_goldens.py).
    assert (tmp_path / "summary.txt").read_text("utf-8") == \
        run_experiment("summary").render() + "\n"


def test_from_results_matches_standalone_full_summary(tmp_path):
    inputs = [run_experiment(eid, fast=False, seed=0)
              for eid in summary.INPUTS]
    derived = summary.from_results(*inputs)
    standalone = summary.run(fast=False, seed=0)
    assert derived.render() == standalone.render()
    assert export_json(derived, tmp_path / "derived").read_bytes() == \
        export_json(standalone, tmp_path / "standalone").read_bytes()


def test_run_all_runs_each_fig5_to_7_cell_once():
    """``summary`` reuses the session's Fig. 5-7 results, so a fast
    ``run_all`` sends exactly the Fig. 5-7 cells fewer to the executor
    than running every experiment on its own."""
    shared = _cells(lambda: run_all(fast=True, seed=0))
    separate = sum(_cells(lambda: run_experiment(eid))
                   for eid in EXPERIMENTS)
    fig5_to_7 = sum(_cells(lambda: run_experiment(eid))
                    for eid in summary.INPUTS)
    assert fig5_to_7 > 0
    assert separate - shared == fig5_to_7


def test_results_are_kept_for_one_session_only():
    engine = ExecutionEngine()
    once = _cells(lambda: engine.run_experiment("fig7"))

    def twice_in_one_session():
        with engine.session():
            first = engine.run_experiment("fig7")
            assert engine.run_experiment("fig7") is first

    assert _cells(twice_in_one_session) == once
    # Separate calls share nothing: no result outlives its session.
    assert _cells(lambda: (engine.run_experiment("fig7"),
                           engine.run_experiment("fig7"))) == 2 * once


def test_retargeted_results_are_not_reused():
    engine = ExecutionEngine()
    untuned = get_platform("fugaku-untuned")
    with engine.session():
        default = engine.run_experiment("fig7")
        retargeted = engine.run_experiment("fig7", platform=untuned)
        assert engine.run_experiment("fig7") is default
    assert retargeted.render() != default.render()
