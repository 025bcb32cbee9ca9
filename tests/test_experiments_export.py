"""Result export: JSON, CSV series, text renderings."""

import csv
import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.experiments.export import (
    export_all,
    export_json,
    export_series_csv,
)


def test_export_json_round_trips(tmp_path):
    result = run_experiment("eq1")
    path = export_json(result, tmp_path)
    payload = json.loads(path.read_text())
    assert payload["experiment_id"] == "eq1"
    assert payload["data"]["analytic"] == pytest.approx(0.195, abs=0.01)
    assert "paper_reference" in payload


def test_export_series_csv_for_figures(tmp_path):
    result = run_experiment("fig7")
    paths = export_series_csv(result, tmp_path)
    names = {p.name for p in paths}
    assert names == {"fig7_LQCD.csv", "fig7_GeoFEM.csv", "fig7_GAMERA.csv"}
    with (tmp_path / "fig7_GAMERA.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(result.data["GAMERA"]["nodes"])
    assert float(rows[-1]["relative_performance"]) > 1.2


def test_non_figure_results_write_no_csv(tmp_path):
    result = run_experiment("table2")
    assert export_series_csv(result, tmp_path) == []


def test_export_all_subset(tmp_path):
    written = export_all(tmp_path, ids=["eq1", "fig7"])
    assert set(written) == {"eq1", "fig7"}
    assert (tmp_path / "eq1.json").exists()
    assert (tmp_path / "eq1.txt").exists()
    assert (tmp_path / "fig7_LQCD.csv").exists()


def test_export_all_rejects_unknown(tmp_path):
    with pytest.raises(ConfigurationError):
        export_all(tmp_path, ids=["fig99"])


def test_table_style_scalar_nodes_write_no_csv(tmp_path):
    # table1's per-machine dicts carry a *scalar* "nodes" (the machine
    # node count) — regression: export must not mistake it for a
    # plottable series and crash iterating an int.
    result = run_experiment("table1")
    assert export_series_csv(result, tmp_path) == []


def test_export_all_every_registered_experiment(tmp_path):
    from repro.experiments import EXPERIMENTS

    written = export_all(tmp_path)  # default: everything
    assert set(written) == set(EXPERIMENTS)
    for eid in EXPERIMENTS:
        assert (tmp_path / f"{eid}.json").exists()
        assert (tmp_path / f"{eid}.txt").exists()


def _keys(value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _keys(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _keys(item)


def test_every_exported_key_is_a_string():
    """``export_json`` hands ``data`` to ``json.dumps(sort_keys=True)``
    as it is: a non-string key would be sorted by its own type, not as
    the text it is written as."""
    from repro.experiments import run_all

    for eid, result in run_all(fast=True, seed=0).items():
        keys = list(_keys(result.data)) + list(_keys(result.paper_reference))
        assert all(isinstance(k, str) for k in keys), eid


def test_json_numpy_leaves_encode_as_python_numbers(tmp_path):
    import numpy as np

    from repro.experiments.report import ExperimentResult

    result = ExperimentResult(
        experiment_id="np", title="numpy leaves", text="",
        data={"a": np.arange(3), "i": np.int64(7), "f": np.float32(0.5),
              "d": np.float64(0.1)})
    payload = json.loads(export_json(result, tmp_path).read_text())
    assert payload["data"] == {"a": [0, 1, 2], "i": 7, "f": 0.5, "d": 0.1}
    bad = ExperimentResult(experiment_id="bad", title="", text="",
                           data={"x": object()})
    with pytest.raises(TypeError):
        export_json(bad, tmp_path)
