"""Export experiment results to files for plotting and archival.

Next to each experiment's paper-style text rendering this module
exports the machine-readable data: one JSON per experiment (the full
``data`` dict plus metadata) and one CSV per figure series, so results
drop straight into matplotlib/pandas/gnuplot.
"""

from __future__ import annotations

import csv
import json
import pathlib
from typing import Iterable

import numpy as np

from ..errors import ConfigurationError
from .registry import EXPERIMENTS
from .report import ExperimentResult


def _numpy_leaf(value):
    """The JSON value of a numpy array or scalar (``json.dumps``'s
    ``default`` hook: called only for values json cannot encode)."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def export_json(result: ExperimentResult, directory: pathlib.Path) -> pathlib.Path:
    """Write one experiment's data + metadata as JSON; returns the path.

    Every key in an experiment's ``data`` and ``paper_reference`` is a
    string, so ``sort_keys`` orders them as text
    (``tests/test_experiments_export.py`` holds this for every
    registered experiment).
    """
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{result.experiment_id}.json"
    payload = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "paper_reference": result.paper_reference,
        "data": result.data,
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=_numpy_leaf) + "\n")
    return path


def export_series_csv(result: ExperimentResult,
                      directory: pathlib.Path) -> list[pathlib.Path]:
    """For figure-style results (per-app dicts holding ``nodes`` and
    ``relative_performance``), write one CSV per application series."""
    directory.mkdir(parents=True, exist_ok=True)
    written: list[pathlib.Path] = []
    for app, series in result.data.items():
        if not isinstance(series, dict):
            continue
        nodes = series.get("nodes")
        # A plottable series carries *parallel sequences*; table-style
        # results (e.g. table1) hold scalar "nodes" = the machine's
        # node count and have no per-point series to write.
        if not isinstance(nodes, (list, tuple)) \
                or "relative_performance" not in series:
            continue
        path = directory / f"{result.experiment_id}_{app}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["nodes", "relative_performance", "yerr",
                             "linux_seconds", "mckernel_seconds"])
            for i, nodes in enumerate(series["nodes"]):
                writer.writerow([
                    nodes,
                    series["relative_performance"][i],
                    series.get("yerr", [0.0] * len(series["nodes"]))[i],
                    series.get("linux_seconds", [""] * len(series["nodes"]))[i],
                    series.get("mckernel_seconds",
                               [""] * len(series["nodes"]))[i],
                ])
        written.append(path)
    return written


def export_all(
    directory: str | pathlib.Path,
    ids: Iterable[str] | None = None,
    fast: bool = True,
    seed: int = 0,
    engine=None,
) -> dict[str, list[str]]:
    """Run and export a set of experiments; returns id -> written paths.

    ``engine`` (an :class:`~repro.engine.ExecutionEngine`) selects the
    execution context; the default ambient engine keeps the historical
    behaviour.  The written bytes are identical for any engine — that
    is the whole point of the shared core.  The ids run in one engine
    session, so ``summary`` reuses the Fig. 5–7 results exported with
    it.
    """
    from ..engine import ExecutionEngine

    if engine is None:
        engine = ExecutionEngine()
    directory = pathlib.Path(directory)
    ids = list(ids) if ids is not None else list(EXPERIMENTS)
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        raise ConfigurationError(f"unknown experiment ids: {unknown}")
    out: dict[str, list[str]] = {}
    with engine.session():
        for eid in ids:
            result = engine.run_experiment(eid, fast=fast, seed=seed)
            paths = [str(export_json(result, directory))]
            paths += [str(p) for p in export_series_csv(result, directory)]
            (directory / f"{eid}.txt").write_text(result.render() + "\n")
            paths.append(str(directory / f"{eid}.txt"))
            out[eid] = paths
    return out
