#!/usr/bin/env python3
"""Regenerate the golden trace fixtures used by test_obs_attribution.

Writes ``tests/golden/trace_faults_seed0.jsonl`` (the event log of
``repro trace run faults`` at seed 0, fast mode) and
``trace_summary_seed0.txt`` (the ``repro trace summarize --top 5``
output for it).  Run from the repo root after a deliberate change to
the traced experiment or the exporters:

    PYTHONPATH=src python tools/gen_trace_fixture.py
"""

from __future__ import annotations

import pathlib

from repro.obs.attribution import NoiseAttribution
from repro.obs.runtrace import trace_experiment

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"


def main() -> None:
    traced = trace_experiment("faults", fast=True, seed=0)
    jsonl = GOLDEN / "trace_faults_seed0.jsonl"
    traced.write_jsonl(str(jsonl))
    summary = NoiseAttribution.from_jsonl(str(jsonl)).report(top_n=5)
    txt = GOLDEN / "trace_summary_seed0.txt"
    txt.write_text(summary + "\n", encoding="utf-8")
    print(f"wrote {jsonl} ({len(traced.tracer)} events)")
    print(f"wrote {txt}")


if __name__ == "__main__":
    main()
