#!/usr/bin/env python3
"""Record the artefacts-full output digests that the benchmark checks.

    python3 perfbench/record_digests.py [N]

writes ``digests.json``: for seeds 0..N-1 (default 20), the sha256 of
each experiment's exported files from ``repro export DIR --full
--seed S``.  Run it only when the exported artefacts change on purpose.
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from repro.engine import ExecutionEngine  # noqa: E402
from workloads import DIGESTS, tree_digests  # noqa: E402


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    recorded = {}
    for seed in range(n):
        with tempfile.TemporaryDirectory(dir=HERE.parent) as out:
            written = ExecutionEngine().export_experiments(
                out, fast=False, seed=seed)
            recorded[str(seed)] = tree_digests(written)
        print(f"seed {seed}: recorded", flush=True)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
