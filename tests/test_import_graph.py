"""The runtime never loads the analysis package.

``repro.analysis`` (the determinism linter) serves ``repro analyze``
and the tests alone; an experiment, the engine and the service must
not pay its import.  Each case runs in a fresh interpreter so nothing
the suite imported earlier can hide a load.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent.parent

CASES = {
    "import-engine": "import repro.engine",
    "run-experiment": (
        "from repro.experiments.registry import run_experiment\n"
        "run_experiment('eq1', fast=True)"),
    "service-status": (
        "from repro.cli import main\n"
        "assert main(['service', 'status', '--dir', 'svc']) == 0"),
}


@pytest.mark.parametrize("code", CASES.values(), ids=CASES.keys())
def test_runtime_path_loads_no_analysis_module(tmp_path, code):
    script = code + (
        "\nimport sys\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[:2] == ['repro', 'analysis']))")
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "REPRO_CACHE_DIR": str(tmp_path / "cache")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
