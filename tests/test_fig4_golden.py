"""Byte-identity of Figure 4 against goldens captured before the
MPI-FWQ worst-node selection was streamed.

Fast mode simulates 24 explicit nodes and keeps the worst 100, so every
node is kept and the ranking never drops one.  Full mode keeps 100 of
128: it is the only registered path where the ranking decides which
rows survive, so its export is locked too.
"""

import pathlib

import pytest

from repro.experiments import run_experiment
from repro.experiments.export import export_json

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_fig4_fast_text_matches_golden():
    golden = (GOLDEN / "fig4_fast_seed0.txt").read_text()
    assert run_experiment("fig4", fast=True, seed=0).text == golden


@pytest.mark.parametrize("fast, name", [
    (True, "fig4_fast_seed0.json"),
    (False, "fig4_full_seed0.json"),
])
def test_fig4_export_matches_golden(tmp_path, fast, name):
    result = run_experiment("fig4", fast=fast, seed=0)
    exported = export_json(result, tmp_path)
    assert exported.read_bytes() == (GOLDEN / name).read_bytes()
