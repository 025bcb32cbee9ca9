"""Boundary fuzz of the spec loaders.

Every loader of a user-written JSON document (platform, run, job,
chaos and fault specs, SLO rule files) takes any input: it returns a
spec or raises :class:`~repro.errors.ConfigurationError` (the CLI's
``repro: error:``, exit 2), never anything else.  What it accepts
round-trips through ``to_dict``/``from_dict`` to an equal object, and a
bool is never read as a number, a string or a container.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.spec import ChaosSpec
from repro.errors import ConfigurationError
from repro.faults.spec import FaultSpec
from repro.obs.fleet import load_slo
from repro.platform.spec import PlatformSpec, RunSpec
from repro.service.jobs import load_jobspec

#: Any JSON value json.loads can return, plus what it returns for
#: ``NaN``, ``Infinity`` and ``1e999`` and integers beyond a float.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.sampled_from([10 ** 400, -10 ** 400, 2 ** 64, math.inf])
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=10)

FAULTS = FaultSpec(node_mtbf_hours=8000.0, ikc_drop_prob=0.01,
                   checkpoint_interval=600.0, checkpoint_cost=30.0,
                   seed=3).to_dict()
PLATFORM = {
    "name": "p", "machine": "fugaku", "os_kind": "mckernel",
    "tuning": "ofp-default",
    "tuning_overrides": {"tick_hz": 250.0, "nohz_full": True,
                         "tlb_flush_mode": "ipi", "name": "t"},
    "machine_overrides": {"n_nodes": 64, "name": "m"},
    "noise": {"include_stragglers": False},
    "mckernel": {"memory_fraction": 0.8, "picodriver": False},
}
RUN = {"platform": PLATFORM, "app": "Milc", "n_nodes": 64, "n_runs": 2,
       "seed": 7}
SWEEP = {"kind": "sweep", "specs": [RUN, {**RUN, "seed": 8}],
         "experiment": "", "fast": True, "seed": 0}
EXPERIMENT = {"kind": "experiment", "specs": [], "experiment": "eq1",
              "fast": False, "seed": 3}
CHAOS = {"seed": 5, "mode": "raise", "sites": [
    {"site": "queue.claim", "action": "kill", "p": 0.5, "max_fires": 2,
     "skip": 1},
    {"site": "journal.append", "action": "torn-write", "p": 1,
     "max_fires": 0, "skip": 0},
]}
SLO = {"max_retry_rate": 0.25, "max_lease_breaks": 3, "min_goodput": 0.75}


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


#: Loader name -> (a valid document, load(text, path)).
LOADERS = {
    "platform": (PLATFORM, lambda text, path: PlatformSpec.from_json(text)),
    "run": (RUN, lambda text, path: RunSpec.from_json(text)),
    "sweep-job": (SWEEP, lambda text, path: load_jobspec(text)),
    "experiment-job": (EXPERIMENT, lambda text, path: load_jobspec(text)),
    "chaos": (CHAOS, lambda text, path: ChaosSpec.load(_write(path, text))),
    "faults": (FAULTS, lambda text, path: FaultSpec.from_json(text)),
    "slo": (SLO, lambda text, path: load_slo(_write(path, text))),
}


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "spec.json"


def _paths(doc, prefix=()):
    """Every key path into ``doc``, containers included."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    """A deep copy of ``doc`` with the value at ``path`` replaced."""
    copy = json.loads(json.dumps(doc))
    _at(copy, path[:-1])[path[-1]] = value
    return copy


def _load(name, doc, path):
    """The loader's result for ``doc``, or None when it refused it."""
    try:
        return LOADERS[name][1](json.dumps(doc), path)
    except ConfigurationError:
        return None


def _round_trips(spec, path):
    if isinstance(spec, dict):  # SLO rules load as a plain dict
        assert load_slo(_write(path, json.dumps(spec))) == spec
    else:
        again = type(spec).from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec


@pytest.mark.parametrize("name", LOADERS)
def test_the_valid_documents_load(name, spec_path):
    spec = _load(name, LOADERS[name][0], spec_path)
    assert spec is not None
    _round_trips(spec, spec_path)


@pytest.mark.parametrize("name", LOADERS)
@settings(max_examples=50, deadline=None)
@given(document=JSON.map(json.dumps) | st.text(max_size=40))
def test_any_text_loads_or_is_refused(name, spec_path, document):
    try:
        spec = LOADERS[name][1](document, spec_path)
    except ConfigurationError:
        return
    _round_trips(spec, spec_path)


@pytest.mark.parametrize("name", LOADERS)
@settings(max_examples=50, deadline=None)
@given(data=st.data(), value=JSON)
def test_any_field_value_loads_or_is_refused(name, spec_path, data, value):
    doc = LOADERS[name][0]
    path = data.draw(st.sampled_from(list(_paths(doc))))
    spec = _load(name, _replaced(doc, path, value), spec_path)
    if spec is not None:
        _round_trips(spec, spec_path)


@pytest.mark.parametrize("name", LOADERS)
def test_a_bool_in_a_non_bool_field_is_refused(name, spec_path):
    doc = LOADERS[name][0]
    for path in _paths(doc):
        if not isinstance(_at(doc, path), bool):
            for value in (True, False):
                replaced = _replaced(doc, path, value)
                assert _load(name, replaced, spec_path) is None, path
