"""CLI error paths: library failures become diagnostics, never
tracebacks.

Every ``ReproError`` raised below ``main()`` must surface as a
``repro: error: ...`` line on stderr with exit code 2 — the message
text comes from :mod:`repro.errors` subclasses, and nothing
Python-internal (tracebacks, exception class reprs) leaks out.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.platform import RunSpec, get_platform
from repro.service import JobQueue


@pytest.fixture
def run_main(capsys):
    """Invoke main() and hand back (exit_code, stdout, stderr) with the
    no-traceback invariant asserted on every call."""

    def invoke(argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "Traceback" not in captured.out
        return code, captured.out, captured.err

    return invoke


def _diagnostic(err: str) -> str:
    assert err.startswith("repro: error: "), err
    return err


def test_malformed_json_spec(tmp_path, run_main):
    bad = tmp_path / "broken.json"
    bad.write_text("{this is not json")
    code, _, err = run_main(["run", str(bad)])
    assert code == 2
    assert "invalid JSON" in _diagnostic(err)


def test_spec_with_invalid_schema(tmp_path, run_main):
    payload = get_platform("ofp-default").to_dict()
    payload["frobnicate"] = True  # unknown field -> ConfigurationError
    bad = tmp_path / "bad_platform.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run_main(["run", str(bad), "--app", "LQCD"])
    assert code == 2
    assert "frobnicate" in _diagnostic(err)


def test_run_spec_with_unknown_app(tmp_path, run_main):
    payload = RunSpec(platform=get_platform("ofp-default"), app="Milc",
                      n_nodes=64).to_dict()
    payload["app"] = "Linpack"
    bad = tmp_path / "bad_app.json"
    bad.write_text(json.dumps(payload))
    code, _, err = run_main(["run", str(bad)])
    assert code == 2
    assert "Linpack" in _diagnostic(err)


def test_unknown_platform_name(run_main):
    code, _, err = run_main(["compare", "LQCD", "--platform", "atlantis"])
    assert code == 2
    err = _diagnostic(err)
    assert "atlantis" in err
    # The diagnostic is actionable: it lists what *is* registered.
    assert "fugaku" in err


def test_unreadable_spec_file(tmp_path, run_main):
    code, _, err = run_main(["run", str(tmp_path / "absent.json")])
    assert code == 2
    assert "absent.json" in _diagnostic(err)


@pytest.mark.parametrize("verb", ["run", "submit", "serve"])
def test_spec_file_that_is_not_utf8(tmp_path, run_main, verb):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"name": "caf\xe9"}')
    svc = str(tmp_path / "svc")
    argv = {"run": ["run", str(bad)],
            "submit": ["submit", str(bad), "--dir", svc],
            "serve": ["serve", "--dir", svc, "--drain", "--chaos",
                      str(bad)]}[verb]
    code, _, err = run_main(argv)
    assert code == 2
    assert "latin1.json" in _diagnostic(err)


def test_platform_show_unknown_name(run_main):
    code, _, err = run_main(["platform", "show", "nonesuch"])
    assert code == 2
    assert "nonesuch" in _diagnostic(err)


def test_submit_malformed_jobspec(tmp_path, run_main):
    bad = tmp_path / "job.json"
    bad.write_text(json.dumps({"kind": "warp", "specs": []}))
    code, _, err = run_main(
        ["submit", str(bad), "--dir", str(tmp_path / "svc")])
    assert code == 2
    assert "warp" in _diagnostic(err)


@pytest.mark.parametrize("form", [{"kind": "experiment"}, {}],
                         ids=["kind-form", "bare-form"])
@pytest.mark.parametrize("fields,message", [
    ({"seed": "x"}, "'seed' must be a JSON integer"),
    ({"seed": 1.5}, "'seed' must be a JSON integer"),
    ({"seed": True}, "'seed' must be a JSON integer"),
    ({"fast": "no"}, "'fast' must be a JSON boolean"),
    ({"fast": 1}, "'fast' must be a JSON boolean"),
    ({"experiment": 7}, "'experiment' must be a JSON string"),
    ({"kind": 3}, "'kind' must be a JSON string"),
    ({"sed": 3}, "unknown field(s) ['sed']"),
    ({"seed": -1}, "seed: must be >= 0, got -1"),
], ids=["seed-str", "seed-float", "seed-bool", "fast-str", "fast-int",
        "experiment-int", "kind-int", "misspelt-key", "seed-negative"])
def test_submit_checks_jobspec_fields(tmp_path, run_main, form, fields,
                                      message):
    """Both submission forms reject a mistyped or misspelt field with a
    diagnostic naming it, instead of a traceback or a silent coercion."""
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps({**form, "experiment": "eq1", **fields}))
    svc = tmp_path / "svc"
    code, _, err = run_main(["submit", str(spec), "--dir", str(svc)])
    assert code == 2
    assert message in _diagnostic(err)
    assert not list(svc.glob("jobs/*.json"))


def test_status_unknown_job(tmp_path, run_main):
    code, _, err = run_main(
        ["status", "j000042-cafecafeca", "--dir", str(tmp_path / "svc")])
    assert code == 2
    assert "j000042-cafecafeca" in _diagnostic(err)


def test_fetch_before_done(tmp_path, run_main):
    spec = RunSpec(platform=get_platform("ofp-default"), app="Milc",
                   n_nodes=64)
    spec_file = tmp_path / "run.json"
    spec_file.write_text(spec.to_json())
    svc = str(tmp_path / "svc")
    code, out, _ = run_main(["submit", str(spec_file), "--dir", svc])
    assert code == 0
    job_id = out.strip()
    code, _, err = run_main(["fetch", job_id, "--dir", svc])
    assert code == 2
    assert "not done" in _diagnostic(err)


def test_status_on_fresh_service_dir_is_friendly(tmp_path, run_main):
    """`repro status` against a never-used service dir: a helpful
    sentence and exit 0 — and no directories scaffolded as a side
    effect of asking."""
    svc = tmp_path / "never-used"
    code, out, _ = run_main(["status", "--dir", str(svc)])
    assert code == 0
    assert "no service directory" in out
    assert "repro submit" in out
    assert not svc.exists()


def test_status_on_empty_existing_service_dir(tmp_path, run_main):
    svc = tmp_path / "svc"
    svc.mkdir()
    code, out, _ = run_main(["status", "--dir", str(svc)])
    assert code == 0
    assert "no jobs" in out


def test_fetch_on_fresh_service_dir_is_friendly(tmp_path, run_main):
    svc = tmp_path / "never-used"
    code, _, err = run_main(
        ["fetch", "j000000-0000000000", "--dir", str(svc)])
    assert code == 2
    assert "no service directory" in _diagnostic(err)
    assert not svc.exists()


def test_service_verify_on_fresh_dir_is_clean(tmp_path, run_main):
    code, out, _ = run_main(
        ["service", "verify", "--dir", str(tmp_path / "never-used")])
    assert code == 0
    report = json.loads(out)
    assert report["clean"] is True and report["violations"] == []


def test_serve_with_unreadable_chaos_spec(tmp_path, run_main):
    code, _, err = run_main(
        ["serve", "--dir", str(tmp_path / "svc"), "--drain",
         "--chaos", str(tmp_path / "absent-spec.json")])
    assert code == 2
    assert "chaos spec" in _diagnostic(err)


def _policy(**fields):
    return {"sites": [{"site": "queue.claim", **fields}]}


@pytest.mark.parametrize("verb", ["serve", "soak"])
@pytest.mark.parametrize("payload, field", [
    ({"seed": "x"}, "seed"),
    ({"seed": 1e999}, "seed"),
    ({"seed": True}, "seed"),
    ({"mode": 3}, "mode"),
    (_policy(p=[1]), "p"),
    (_policy(p=True), "p"),
    (_policy(max_fires=None), "max_fires"),
    (_policy(max_fires=1.5), "max_fires"),
    (_policy(skip=2.0), "skip"),
    ({"sites": [{"site": 1}]}, "site"),
    (_policy(action=["kill"]), "action"),
])
def test_chaos_spec_field_types_are_checked(tmp_path, run_main, verb,
                                             payload, field):
    """A mistyped chaos-spec field is a diagnostic naming it, never a
    traceback or a silent coercion (1.5 fires, a boolean seed)."""
    spec = tmp_path / "chaos.json"
    spec.write_text(json.dumps(payload))
    svc = str(tmp_path / "svc")
    argv = (["serve", "--dir", svc, "--drain", "--chaos", str(spec)]
            if verb == "serve" else
            ["chaos", "soak", svc, "--rounds", "1", "--spec", str(spec)])
    code, _, err = run_main(argv)
    assert code == 2
    assert f"{field!r} must be a JSON" in _diagnostic(err)


_PLATFORM = {"name": "x", "machine": "fugaku"}


def _mistyped(field: str) -> str:
    return f"{field!r} must be a JSON"


# A platform carries no fault scenario any more, so a spec with a
# mistyped or non-finite "faults" field is refused as a whole: the
# "faults" key is unknown, never read as a backoff factor of 1.0 or a
# NaN rate.  The FaultSpec field checks themselves are tested on
# FaultSpec directly (test_faults_spec).
_FAULTS_REFUSED = "unknown field(s) ['faults']"


@pytest.mark.parametrize("verb", ["validate", "submit"])
@pytest.mark.parametrize("platform, run, message", [
    ({"machine": []}, {}, _mistyped("machine")),
    ({"tuning": ["a"]}, {}, _mistyped("tuning")),
    ({"tuning_overrides": "ab"}, {}, _mistyped("tuning_overrides")),
    ({"noise": 5}, {}, _mistyped("noise")),
    ({}, {"app": ["a"]}, _mistyped("app")),
    ({}, {"app": {}}, _mistyped("app")),
    ({"faults": {"backoff_factor": "x"}}, {}, _FAULTS_REFUSED),
    ({"faults": {"backoff_factor": True}}, {}, _FAULTS_REFUSED),
    ({"faults": {"node_mtbf_hours": float("nan")}}, {}, _FAULTS_REFUSED),
    ({"faults": {"ikc_timeout": float("inf")}}, {}, _FAULTS_REFUSED),
    ({"faults": {"checkpoint_cost": 1e999}}, {}, _FAULTS_REFUSED),
], ids=["machine-list", "tuning-list", "overrides-str", "noise-int",
        "app-list", "app-object", "backoff-str", "backoff-bool",
        "rate-nan", "timeout-inf", "cost-1e999"])
def test_platform_and_run_spec_field_types_are_checked(
        tmp_path, run_main, verb, platform, run, message):
    """A mistyped or non-finite platform/run-spec field is a diagnostic
    naming it, never a traceback or a silent read."""
    platform = {**_PLATFORM, **platform}
    run_doc = {"platform": platform, "app": "Milc", "n_nodes": 64, **run}
    spec = tmp_path / "spec.json"
    # json.dumps writes NaN/Infinity, which json.loads reads back.
    spec.write_text(json.dumps(
        platform if verb == "validate" and not run else run_doc))
    svc = tmp_path / "svc"
    argv = (["platform", "validate", str(spec)] if verb == "validate"
            else ["submit", str(spec), "--dir", str(svc)])
    code, _, err = run_main(argv)
    assert code == 2
    assert message in _diagnostic(err)
    assert not list(svc.glob("jobs/*.json"))


_RUN = {"platform": _PLATFORM, "app": "Milc", "n_nodes": 4}


@pytest.mark.parametrize("verb", ["validate", "run"])
@pytest.mark.parametrize("doc, message", [
    ({**_RUN, "seed": -1}, "seed: must be >= 0, got -1"),
    # A platform carries no fault scenario (the batch scheduler takes
    # a FaultSpec directly), so any "faults" key is an unknown field.
    ({**_RUN, "platform": {**_PLATFORM, "faults": {"seed": -5}}},
     "unknown field(s) ['faults']"),
    ({**_RUN, "platform": {**_PLATFORM, "faults": {}}},
     "unknown field(s) ['faults']"),
    ({**_RUN, "n_nodes": 10 ** 12}, "n_nodes must be in 1..158976"),
    *[({**_RUN, "platform": {**_PLATFORM,
                             "tuning_overrides": {knob: True}}},
       f"tuning_overrides.{knob}: LinuxTuning has no such field")
      for knob in ("virtual_numa", "hugetlb_overcommit",
                   "charge_surplus_hugetlb")],
], ids=["seed-negative", "fault-seed-negative", "faults-empty",
        "nodes-over-machine", "tuning-virtual-numa",
        "tuning-hugetlb-overcommit", "tuning-charge-surplus-hugetlb"])
def test_validate_refuses_what_run_refuses(tmp_path, run_main, verb, doc,
                                           message):
    """A run spec that ``repro run`` cannot run is not "valid" either:
    both verbs refuse it with the same diagnostic, never numpy's
    traceback.  Spec keys that name no model state (a platform
    ``faults`` scenario, tuning fields no model reads) are refused,
    not silently carried into the cache key."""
    spec = tmp_path / "run.json"
    spec.write_text(json.dumps(doc))
    argv = (["platform", "validate", str(spec)] if verb == "validate"
            else ["run", str(spec), "--no-cache"])
    code, out, err = run_main(argv)
    assert code == 2
    assert message in _diagnostic(err)
    assert "valid" not in out


@pytest.mark.parametrize("verb", ["serve", "soak"])
def test_chaos_spec_seed_must_be_non_negative(tmp_path, run_main, verb):
    spec = tmp_path / "chaos.json"
    spec.write_text(json.dumps({"seed": -1}))
    svc = str(tmp_path / "svc")
    argv = (["serve", "--dir", svc, "--drain", "--chaos", str(spec)]
            if verb == "serve" else
            ["chaos", "soak", svc, "--rounds", "1", "--spec", str(spec)])
    code, _, err = run_main(argv)
    assert code == 2
    assert "seed: must be >= 0, got -1" in _diagnostic(err)


@pytest.mark.parametrize("argv", [
    ["experiments", "eq1"],
    ["run", "spec.json"],
    ["compare", "LQCD"],
    ["export", "out"],
    ["trace", "run", "eq1"],
    ["metrics", "eq1"],
    ["chaos", "soak", "soak"],
    ["submit", "--experiment", "eq1"],
    ["fwq"],
], ids=lambda argv: "-".join(argv[:2]))
@pytest.mark.parametrize("seed, message", [
    ("-1", "must be >= 0, got -1"),
    ("x", "invalid int value: 'x'"),
], ids=["negative", "not-int"])
def test_every_seed_flag_is_a_non_negative_integer(capsys, argv, seed,
                                                   message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", seed])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    # argparse names the subcommand: ``repro fwq: error: ...``.
    assert re.search(rf"^repro[\w ]*: error: argument --seed: "
                     rf"{re.escape(message)}$", err, re.MULTILINE), err
    assert "Traceback" not in err


def test_cache_gc_without_bounds(run_main, tmp_path):
    code, _, err = run_main(
        ["cache", "gc", "--cache-dir", str(tmp_path / "cache")])
    assert code == 2
    assert "max-age-days" in _diagnostic(err) or \
        "max_age_days" in _diagnostic(err)


def test_closing_stdout_early_is_quiet(tmp_path):
    """``repro service status --dir D | head -1``: the reader goes away
    after one line while repro still has hundreds of KiB to print;
    repro stops without a traceback."""
    queue = JobQueue(tmp_path / "svc", durable=False)
    for seq in range(8000):
        queue.journal.append({"type": "submit", "kind": "experiment",
                              "job": f"j{seq:06d}-0123456789"})
    src = pathlib.Path(repro.__file__).parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "service", "status", "--dir",
         str(queue.root)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.readline().startswith(b"job ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait(timeout=60)
    assert err == b""
    assert proc.returncode == 1

