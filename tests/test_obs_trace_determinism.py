"""The observability determinism contract:

* two traced runs of the same (experiment, seed) produce byte-identical
  trace.json, for any --jobs value;
* installing a tracer changes neither experiment output nor cache keys;
* a traced run shows the layers its experiment reaches, and no others.
"""

from __future__ import annotations

import inspect
import json

import pytest

from repro.experiments import run_experiment
from repro.experiments.registry import EXPERIMENTS
from repro.obs.export import validate_chrome_trace
from repro.obs.runtrace import trace_experiment
from repro.obs.tracer import Tracer, tracing
from repro.perf.executor import RunCell
from repro.platform import RunSpec, get_platform

#: The layers each experiment's fast, seed-0 run emits events on.
TRACED_LAYERS = {
    "table1": [], "eq1": [], "table2": [], "fig1": [], "fig3": [],
    "fig4": [],
    "fig2": ["lwk", "proxy"],
    "fig5": ["perf"], "fig6": ["perf"], "fig7": ["perf"],
    "summary": ["perf"], "exascale": ["perf"],
    "faults": ["sched", "faults"],
}


@pytest.fixture(scope="module")
def traced_faults():
    return trace_experiment("faults", fast=True, seed=0)


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_trace_shows_only_what_the_experiment_ran(experiment_id):
    traced = trace_experiment(experiment_id, fast=True, seed=0)
    expected = TRACED_LAYERS[experiment_id]
    assert traced.tracer.layers_seen() == expected
    layers = json.loads(traced.chrome_json())["otherData"]["layers"]
    assert sorted(layers) == sorted(expected)


def test_traced_run_covers_at_least_five_layers():
    # No single experiment reaches five layers; one tracer shared by
    # the LWK, application and fault experiments does.
    shared = Tracer()
    for experiment_id in ("fig2", "fig5", "faults"):
        traced = trace_experiment(experiment_id, fast=True, seed=0,
                                  tracer=shared)
    layers = set(shared.layers_seen())
    assert {"lwk", "proxy", "sched", "perf", "faults"} <= layers
    assert len(layers) >= 5
    exported = json.loads(traced.chrome_json())["otherData"]["layers"]
    assert set(exported) == layers


def test_node_slice_is_optional():
    assert "node_slice" not in inspect.signature(trace_experiment).parameters
    bare = trace_experiment("eq1", fast=True, seed=0)
    # eq1 is purely analytic: with no slice prefixed it traces nothing,
    # which is exactly the zero-overhead contract.
    assert bare.tracer.layers_seen() == []
    assert json.loads(bare.chrome_json())["otherData"]["layers"] == {}


def test_trace_json_is_chrome_valid(traced_faults):
    obj = json.loads(traced_faults.chrome_json())
    assert validate_chrome_trace(obj) == []
    assert obj["otherData"]["experiment"] == "faults"


def test_repeated_traced_runs_are_byte_identical(traced_faults):
    again = trace_experiment("faults", fast=True, seed=0)
    assert again.chrome_json() == traced_faults.chrome_json()
    assert list(map(str, again.tracer.events)) == \
        list(map(str, traced_faults.tracer.events))


def test_jobs_value_does_not_change_the_trace(traced_faults):
    parallel = trace_experiment("faults", fast=True, seed=0, jobs=2)
    assert parallel.chrome_json() == traced_faults.chrome_json()


def test_seed_does_change_the_trace(traced_faults):
    other = trace_experiment("faults", fast=True, seed=1)
    assert list(map(str, other.tracer.events)) != \
        list(map(str, traced_faults.tracer.events))


def test_tracing_does_not_change_experiment_output():
    plain = run_experiment("faults", fast=True, seed=0)
    with tracing() as tracer:
        traced = run_experiment("faults", fast=True, seed=0)
    assert len(tracer) > 0
    assert traced.render() == plain.render()
    assert traced.data == plain.data


def test_tracing_does_not_change_cache_keys():
    cell = RunCell(RunSpec(platform=get_platform("ofp-default"),
                           app="Lulesh", n_nodes=16, n_runs=1))
    plain_key = cell.key()
    with tracing():
        assert cell.key() == plain_key
