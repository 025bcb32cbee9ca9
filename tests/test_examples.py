"""Every script under ``examples/`` runs to completion.

Each example runs in a fresh interpreter with ``PYTHONPATH`` at the
source tree, from a scratch working directory and with its own run
cache, exactly as the README tells a reader to run it.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parent.parent
EXAMPLES = sorted((SRC.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_runs(tmp_path, script):
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "REPRO_CACHE_DIR": str(tmp_path / "cache")}
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
