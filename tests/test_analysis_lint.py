"""Determinism gates: the checks that replaced the retired DET rules.

The reproduction promises that every artefact comes out byte-identical
for every seed, every ``--jobs`` value and every cache tier.  That
promise is held to the bytes the shipped program writes, not to how
its source is spelled:

* the goldens pin every artefact's JSON export and the trace of
  ``faults`` (:func:`golden_drift`);
* :func:`run_outputs` runs the program (every artefact exported, a
  cached sweep, a drained service's report and verify, a trace) in
  fresh interpreters, and :func:`differences` diffs what they wrote:
  under another ``PYTHONHASHSEED`` and ``--jobs 2``, and with every
  directory listing reversed;
* :func:`unrooted_exceptions` walks every exception class in the
  package for a :class:`~repro.errors.ReproError` root.

Each DET rule whose hazard one of these catches keeps its test ids.
The "positive fixture" is the package source with the rule's hazard
planted at a realistic site (:data:`PLANTS`), and the replacing check
must fail on it; the "negative fixture" is the source as shipped,
which must pass.  DET005 (mutable default arguments) is retired
without a replacement: its plant moved no output byte.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
from typing import NamedTuple

import pytest

import repro
import repro.platform

SRC = pathlib.Path(repro.__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).parent / "golden"


class Variant(NamedTuple):
    """How one fresh interpreter runs the program."""

    hash_seed: int = 0
    jobs: int = 1
    reversed_listings: bool = False


BASE = Variant()
#: The variants the shipped outputs are diffed against :data:`BASE`.
VARIANTS = {"hash-seed-and-jobs": Variant(hash_seed=1, jobs=2),
            "listing-order": Variant(reversed_listings=True)}

#: Prepended to the child's script for ``reversed_listings``: every
#: ``os.listdir``/``os.scandir`` (and so every ``pathlib`` iterdir and
#: glob) yields its entries in reverse, checked on a temporary directory
#: before the program runs.
_REVERSE_LISTINGS = r'''
import glob, os, pathlib, tempfile
_listdir, _scandir = os.listdir, os.scandir

class _Listing:
    def __init__(self, entries):
        self._entries = iter(entries)
    def __iter__(self):
        return self
    def __next__(self):
        return next(self._entries)
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        return False
    def close(self):
        pass

def _reversed_listdir(path="."):
    return _listdir(path)[::-1]

def _reversed_scandir(path="."):
    with _scandir(path) as entries:
        return _Listing(list(entries)[::-1])

os.listdir, os.scandir = _reversed_listdir, _reversed_scandir
# Classes that bound the originals when imported (pathlib's accessor
# before 3.11, glob's globber from 3.13).
for _cls in [*vars(glob).values(), *vars(pathlib).values()]:
    for _name, _orig, _new in (("listdir", _listdir, _reversed_listdir),
                               ("scandir", _scandir, _reversed_scandir)):
        if isinstance(_cls, type) and getattr(_cls, _name, None) is _orig:
            setattr(_cls, _name, staticmethod(_new))
with tempfile.TemporaryDirectory() as _d:
    for _name in "abc":
        open(os.path.join(_d, _name), "w").close()
    _want = _listdir(_d)[::-1]
    assert [p.name for p in pathlib.Path(_d).iterdir()] == _want
    assert [p.name for p in pathlib.Path(_d).glob("*")] == _want
    assert [e.name for e in os.scandir(_d)] == _want
'''

#: Runs each ``(stdout file, argv)`` step through the CLI.
_RUN_STEPS = r'''
import contextlib, json, sys
from repro.cli import main
for out, argv in json.loads(sys.argv[1]):
    with open(out, "w") as fh, contextlib.redirect_stdout(fh):
        code = main(argv)
    if code != 0:
        sys.exit(f"repro {' '.join(argv)} exited {code}")
'''

EXPORT = [("export.out", ["export", "out"])]
TRACE = [("trace.out", ["trace", "run", "faults", "--out", "trace.json",
                        "--jsonl", "trace.jsonl"])]
SERVICE = [
    ("submit-run.out", ["submit", "spec.json", "--dir", "svc"]),
    *[(f"submit-eq1-{seed}.out", ["submit", "--experiment", "eq1",
                                  "--seed", str(seed), "--dir", "svc"])
      for seed in range(4)],
    ("serve.out", ["serve", "--drain", "--poll", "0.01", "--dir", "svc"]),
    *[(f"report.{fmt}", ["service", "report", "--dir", "svc",
                         "--format", fmt])
      for fmt in ("json", "prom", "chrome")],
    ("verify.json", ["service", "verify", "--dir", "svc"]),
]


def sweep(jobs: int) -> list:
    """fig5 and fig6 through the executor and a cold run cache."""
    return [("sweep.out", ["experiment", "fig5", "fig6",
                           "--jobs", str(jobs), "--cache-dir", "cache"])]


def everything(jobs: int) -> list:
    return EXPORT + sweep(jobs) + SERVICE + TRACE


#: Outputs that name the worker process (``w<pid>``) that wrote them.
VOLATILE = frozenset({"serve.out", "svc/journal.jsonl"})


def run_outputs(tmp_path: pathlib.Path, variants: dict, steps,
                src: pathlib.Path = SRC) -> dict:
    """Run ``steps(variant.jobs)`` with the package under ``src``, one
    fresh interpreter per variant (all at once); returns variant name
    -> {path: bytes} of every file the run wrote, :data:`VOLATILE`
    ones left out."""
    spec = repro.platform.RunSpec(
        platform=repro.platform.get_platform("ofp-default"), app="Milc",
        n_nodes=64, n_runs=2, seed=3).to_json()
    procs = {}
    for name, variant in variants.items():
        cwd = tmp_path / name
        cwd.mkdir(parents=True)
        (cwd / "spec.json").write_text(spec)
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env.update(PYTHONPATH=str(src),
                   PYTHONHASHSEED=str(variant.hash_seed),
                   REPRO_CACHE_DIR="cache")
        script = (_REVERSE_LISTINGS if variant.reversed_listings else "") \
            + _RUN_STEPS
        procs[name] = subprocess.Popen(
            [sys.executable, "-c", script, json.dumps(steps(variant.jobs))],
            cwd=cwd, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
    trees = {}
    for name, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"{name}: {out}{err}"
        root = tmp_path / name
        trees[name] = {
            path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "spec.json"
            and path.relative_to(root).as_posix() not in VOLATILE}
    return trees


def differences(a: dict, b: dict) -> list:
    """Every path one tree holds with other bytes, or alone."""
    return sorted(path for path in set(a) | set(b)
                  if a.get(path) != b.get(path))


def golden_drift(tree: dict) -> list:
    """Every exported JSON artefact and trace in ``tree`` that differs
    from its golden."""
    goldens = {f"out/{path.name.split('_fast_')[0]}.json": path
               for path in GOLDEN.glob("*_fast_seed0.json")}
    goldens["trace.jsonl"] = GOLDEN / "trace_faults_seed0.jsonl"
    return sorted(out for out, golden in goldens.items()
                  if out in tree and tree[out] != golden.read_bytes())


#: The exception classes that stand outside ``ReproError`` on purpose:
#: a chaos kill must behave like ``kill -9``, never a polite retry (its
#: docstring says why), and the executor's partial-failure carrier
#: never escapes ``execute_cells``; rooting it under ReproError would
#: let ReproError handlers swallow pool plumbing.
UNROOTED_BY_DESIGN = ("repro.errors.CrashInjected",
                      "repro.perf.executor._PartialPoolFailure")

_WALK = r'''
import importlib, inspect, json, pkgutil
import repro
from repro.errors import ReproError
unrooted = []
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name == "repro.__main__":
        continue
    module = importlib.import_module(info.name)
    for cls in vars(module).values():
        if (inspect.isclass(cls) and issubclass(cls, BaseException)
                and cls.__module__ == info.name
                and not issubclass(cls, ReproError)):
            unrooted.append(f"{info.name}.{cls.__qualname__}")
print(json.dumps(sorted(unrooted)))
'''


def unrooted_exceptions(src: pathlib.Path = SRC) -> list:
    """Every exception class a module of the package under ``src``
    defines outside the ``repro.errors`` hierarchy, except
    :data:`UNROOTED_BY_DESIGN`."""
    proc = subprocess.run(
        [sys.executable, "-c", _WALK], env={**os.environ,
                                            "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=300)
    return [name for name in json.loads(proc.stdout)
            if name not in UNROOTED_BY_DESIGN]


def planted(tmp_path: pathlib.Path, edits) -> pathlib.Path:
    """A copy of the package with each ``(module, old, new)`` edit
    applied; returns the directory to put on ``PYTHONPATH``."""
    root = tmp_path / "src"
    shutil.copytree(SRC / "repro", root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for module, old, new in edits:
        path = root / "repro" / module
        text = path.read_text(encoding="utf-8")
        assert text.count(old) == 1, f"plant site in {module} moved"
        path.write_text(text.replace(old, new), encoding="utf-8")
    return root


# -- per-rule fixtures ----------------------------------------------------


class Plant(NamedTuple):
    """One rule's hazard and the check that catches it."""

    #: ``(module, old, new)`` source edits that plant the hazard.
    edits: list
    #: ``jobs -> steps`` the check runs, or None for the exception walk.
    steps: object
    #: "golden", or the :data:`VARIANTS` entry diffed against BASE.
    against: str = "golden"


def caught(plant: Plant, trees: dict, walk: list) -> list:
    """What ``plant``'s check finds in the outputs ``trees`` (variant
    name -> tree) and the exception ``walk``."""
    if plant.steps is None:
        return walk
    if plant.against == "golden":
        return golden_drift(trees["base"])
    return differences(trees["base"], trees[plant.against])


def _export(eid):
    return lambda jobs: [("export.out", ["export", "out", eid])]


#: Each rule's hazard, planted at a realistic site.
PLANTS = {
    # A wall clock in a cell result: host overhead charged to each run.
    "DET001": Plant([
        ("runtime/runner.py", "import numpy as np\n",
         "import time\n\nimport numpy as np\n"),
        ("runtime/runner.py", "        rngs = [\n",
         "        t0 = time.perf_counter()\n        rngs = [\n"),
        ("runtime/runner.py", "            times.append(base * jitter)",
         "            times.append(base * jitter"
         " + (time.perf_counter() - t0))"),
    ], _export("fig7")),
    # The process-global numpy RNG in the barrier-delay sampler.
    "DET002": Plant([
        ("noise/sampler.py",
         "                counts = rng.binomial(self.n_threads, p, "
         "n_intervals)\n                pos = counts > 0",
         "                counts = np.random.binomial(self.n_threads, p, "
         "n_intervals)\n                pos = counts > 0"),
    ], _export("fig7")),
    # An unsorted directory listing in the results reader.
    "DET003": Plant([
        ("obs/fleet.py",
         "entries = sorted(os.scandir(directory), key=lambda e: e.name)",
         "entries = list(os.scandir(directory))"),
    ], lambda jobs: SERVICE, "listing-order"),
    # Set iteration in an exporter: the fleet report's job list.
    "DET004": Plant([
        ("obs/fleet.py",
         "        for job_id in sorted(self._table):\n"
         "            view = self._table[job_id]\n"
         "            state = view.state.value\n",
         "        for job_id in set(self._table):\n"
         "            view = self._table[job_id]\n"
         "            state = view.state.value\n"),
    ], lambda jobs: SERVICE, "hash-seed-and-jobs"),
    # A completion-order harvest in the parallel executor.
    "DET006": Plant([
        ("perf/executor.py",
         "    for i, future in enumerate(futures):\n",
         "    from concurrent.futures import as_completed\n"
         "    for i, future in enumerate(as_completed(futures)):\n"),
    ], sweep, "hash-seed-and-jobs"),
    # A field dropped from FaultSpec.to_dict.
    "DET007": Plant([
        ("faults/spec.py",
         "return {f.name: getattr(self, f.name) for f in fields(self)}",
         "return {f.name: getattr(self, f.name) for f in fields(self)\n"
         "                if f.name != \"ikc_drop_prob\"}"),
    ], _export("faults")),
    # An exception class outside the repro.errors hierarchy.
    "DET008": Plant([
        ("obs/fleet.py", "class FleetAggregator:",
         "class SloRuleError(ValueError):\n"
         "    \"\"\"An SLO file names a rule that does not exist.\"\"\"\n"
         "\n\nclass FleetAggregator:"),
    ], None),
    # The salted builtin hash() as the run cache key.
    "DET009": Plant([
        ("perf/fingerprint.py",
         "return hashlib.sha256(payload.encode(\"utf-8\")).hexdigest()",
         "return f\"{hash(payload) & 0xFFFFFFFFFFFFFFFF:016x}\""),
    ], lambda jobs: SERVICE, "hash-seed-and-jobs"),
    # sort_keys dropped from the one canonical JSON form.
    "DET010": Plant([
        ("obs/export.py",
         "return json.dumps(obj, sort_keys=True, separators=(\",\", \":\"))",
         "return json.dumps(obj, separators=(\",\", \":\"))"),
    ], lambda jobs: TRACE),
}


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """The shipped package's outputs under :data:`BASE` and every
    :data:`VARIANTS` entry, and its exception walk."""
    trees = run_outputs(tmp_path_factory.mktemp("shipped"),
                        {"base": BASE, **VARIANTS}, everything)
    return trees, unrooted_exceptions()


@pytest.mark.parametrize("rule_id", sorted(PLANTS))
def test_positive_fixture_triggers_exactly_its_rule(rule_id, tmp_path):
    """The hazard, planted, breaks the check that replaced the rule."""
    plant = PLANTS[rule_id]
    src = planted(tmp_path, plant.edits)
    if plant.steps is None:
        assert caught(plant, {}, unrooted_exceptions(src))
        return
    variants = {"base": BASE}
    if plant.against != "golden":
        variants[plant.against] = VARIANTS[plant.against]
    assert caught(plant, run_outputs(tmp_path, variants, plant.steps, src),
                  [])


@pytest.mark.parametrize("rule_id", sorted(PLANTS))
def test_negative_fixture_is_clean(rule_id, shipped):
    """The shipped package passes the check that replaced the rule."""
    assert caught(PLANTS[rule_id], *shipped) == []


def test_repro_package_is_lint_clean_under_checked_in_baseline(shipped):
    """The shipped package, end to end: every golden holds, the outputs
    are byte-identical under every variant, and every exception class
    outside :data:`UNROOTED_BY_DESIGN` is a ReproError."""
    trees, walk = shipped
    assert golden_drift(trees["base"]) == []
    # Every artefact, the cached sweep, the service and the trace ran.
    assert {"out/fig4.json", "sweep.out", "report.json", "verify.json",
            "trace.jsonl"} <= set(trees["base"])
    assert any(path.startswith("cache/") for path in trees["base"])
    assert any(path.startswith("svc/cache/") for path in trees["base"])
    for name in VARIANTS:
        assert differences(trees["base"], trees[name]) == [], name
    assert walk == []


def test_cli_analyze_lint(capsys):
    """The AST linter is gone: ``repro analyze`` is an invalid choice."""
    from repro.cli import main

    with pytest.raises(SystemExit) as exc:
        main(["analyze", "lint", "src/repro"])
    assert exc.value.code == 2
    assert "invalid choice: 'analyze'" in capsys.readouterr().err
