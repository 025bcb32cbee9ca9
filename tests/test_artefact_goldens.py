"""Byte-identity of the nine artefacts no other golden covers.

table2, fig2, fig4 and fig5 have their own golden tests; these lock
the seed-0 fast text and the fast canonical-JSON export of every other
registered experiment, so a change that deletes or reorders model code
cannot move a digit of any artefact unnoticed.
"""

import pathlib

import pytest

from repro.experiments import run_experiment
from repro.experiments.export import export_json

GOLDEN = pathlib.Path(__file__).parent / "golden"

IDS = ("table1", "eq1", "fig1", "fig3", "fig6", "fig7", "summary",
       "exascale", "faults")


@pytest.mark.parametrize("eid", IDS)
def test_fast_text_and_export_match_golden(tmp_path, eid):
    result = run_experiment(eid, fast=True, seed=0)
    text = (GOLDEN / f"{eid}_fast_seed0.txt").read_bytes()
    assert result.text.encode("utf-8") == text
    exported = export_json(result, tmp_path)
    assert exported.read_bytes() == \
        (GOLDEN / f"{eid}_fast_seed0.json").read_bytes()
