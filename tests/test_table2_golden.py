"""Byte-identity of Table 2 against goldens captured while every
countermeasure row still pooled a dense multi-core FWQ series.

The fast text is locked by ``test_platform_golden.py``; these lock the
fast export and both full-mode outputs, so a change to how the pooled
maximum and noise-rate mean are reduced cannot move a digit.
"""

import pathlib

import pytest

from repro.experiments import run_experiment
from repro.experiments.export import export_json

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_table2_full_text_matches_golden():
    golden = (GOLDEN / "table2_full_seed0.txt").read_text()
    assert run_experiment("table2", fast=False, seed=0).text == golden


@pytest.mark.parametrize("fast, name", [
    (True, "table2_fast_seed0.json"),
    (False, "table2_full_seed0.json"),
])
def test_table2_export_matches_golden(tmp_path, fast, name):
    result = run_experiment("table2", fast=fast, seed=0)
    exported = export_json(result, tmp_path)
    assert exported.read_bytes() == (GOLDEN / name).read_bytes()
