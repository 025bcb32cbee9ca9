"""Each entry point imports only what it runs.

``repro``, ``repro.platform``, ``repro.apps``, ``repro.service`` and
``repro.perf`` resolve their re-exports on first access, so ``repro
--help`` loads no numpy, the service's read-only verbs load none of
the paper model and none of the machinery that runs jobs, submitting or
verifying a job loads no noise model, and no verb that never samples
a distribution loads ``scipy``.  Each case runs in a fresh interpreter
so nothing the suite imported earlier can hide a load.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
import repro.apps
import repro.perf
import repro.platform
import repro.service

SRC = pathlib.Path(repro.__file__).parent.parent

#: The model subpackages a service read never needs.
MODEL = ("apps", "experiments", "runtime", "mckernel", "net", "noise")
#: The modules that run jobs, which a service read never needs either.
RUNNERS = ("repro.engine", "repro.service.worker", "repro.service.fleet",
           "repro.perf.executor")


def _loaded(cwd: pathlib.Path, code: str) -> list[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    script = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "REPRO_CACHE_DIR": str(cwd / "cache")}
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _cli(*argv: str) -> str:
    return f"from repro.cli import main\nassert main({list(argv)!r}) == 0"


def _under(modules: list[str], *prefixes: str) -> list[str]:
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


@pytest.fixture(scope="module")
def drained(tmp_path_factory) -> pathlib.Path:
    """A service dir holding one drained run job and one drained
    experiment job."""
    root = tmp_path_factory.mktemp("drained")
    spec = repro.platform.RunSpec(
        platform=repro.platform.get_platform("ofp-default"), app="Milc",
        n_nodes=64, n_runs=2, seed=3)
    (root / "spec.json").write_text(spec.to_json())
    svc = str(root / "svc")
    _loaded(root, "\n".join([
        _cli("submit", "spec.json", "--dir", svc),
        _cli("submit", "--experiment", "eq1", "--dir", svc),
        _cli("serve", "--drain", "--poll", "0.01", "--dir", svc)]))
    return root


def test_help_loads_only_the_cli(tmp_path):
    code = ("from repro.cli import main\n"
            "try:\n"
            "    main(['--help'])\n"
            "except SystemExit:\n"
            "    pass")
    modules = _loaded(tmp_path, code)
    assert _under(modules, "repro") == ["repro", "repro.cli",
                                         "repro.errors"]
    assert _under(modules, "numpy", "scipy") == []


@pytest.mark.parametrize("argv", [("status",), ("service", "report")],
                         ids=["status", "service-report"])
def test_service_reads_load_no_model_and_no_scipy(drained, argv):
    modules = _loaded(drained, _cli(*argv, "--dir", str(drained / "svc")))
    assert _under(modules, *(f"repro.{p}" for p in MODEL)) == []
    assert _under(modules, "scipy") == []


def test_service_verify_loads_no_scipy(drained):
    modules = _loaded(drained, _cli("service", "verify",
                                    "--dir", str(drained / "svc")))
    assert _under(modules, "scipy") == []
    assert _under(modules, "repro.noise", "repro.apps.fwq") == []


@pytest.mark.parametrize("argv", [("spec.json",), ("--experiment", "fig1")],
                         ids=["spec", "experiment"])
def test_submit_loads_no_scipy(drained, tmp_path, argv):
    modules = _loaded(drained, _cli("submit", *argv,
                                    "--dir", str(tmp_path / "svc")))
    assert _under(modules, "scipy") == []
    assert _under(modules, "repro.noise", "repro.apps.fwq") == []


@pytest.mark.parametrize("argv", [("status",), ("service", "verify"),
                                  ("service", "report")],
                         ids=["status", "service-verify", "service-report"])
def test_service_reads_load_nothing_that_runs_jobs(drained, argv):
    modules = _loaded(drained, _cli(*argv, "--dir", str(drained / "svc")))
    assert _under(modules, *RUNNERS) == []


@pytest.mark.parametrize(
    "package", [repro, repro.platform, repro.apps, repro.service, repro.perf],
    ids=["repro", "repro.platform", "repro.apps", "repro.service",
         "repro.perf"])
def test_every_lazy_export_resolves_and_is_listed(package):
    listed = dir(package)
    for name in package.__all__:
        assert getattr(package, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        getattr(package, "no_such_export")


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["ExecutionEngine"] is repro.engine.ExecutionEngine
    assert namespace["platform"] is repro.platform
