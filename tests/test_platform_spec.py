"""The declarative platform layer: specs, registry, resolver, CLI."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.kernel.tuning import fugaku_production
from repro.noise.mitigation import countermeasure_sweep
from repro.platform import (
    NoiseSwitches,
    PlatformSpec,
    RunSpec,
    build,
    get_platform,
    load_spec,
    platform_names,
    register_platform,
    run_cells,
)


# -- serialization round trips ------------------------------------------


@pytest.mark.parametrize("name", platform_names())
def test_platform_json_round_trip(name):
    spec = get_platform(name)
    again = PlatformSpec.from_json(spec.to_json(indent=2))
    assert again == spec
    assert again.canonical_json() == spec.canonical_json()


def test_run_spec_round_trip_preserves_fingerprint():
    spec = RunSpec(platform=get_platform("fugaku-production"),
                   app="LQCD", n_nodes=2048, n_runs=5, seed=7)
    again = RunSpec.from_json(spec.to_json(indent=2))
    assert again == spec
    assert again.fingerprint() == spec.fingerprint()


def test_canonical_json_is_construction_independent():
    a = PlatformSpec(name="p", machine="fugaku")
    b = PlatformSpec.from_dict({"name": "p", "machine": "fugaku"})
    assert a.canonical_json() == b.canonical_json()


def test_load_spec_dispatches_on_platform_key():
    plat = get_platform("ofp-default")
    assert isinstance(load_spec(plat.to_json()), PlatformSpec)
    run = RunSpec(platform=plat, app="Milc", n_nodes=64)
    assert isinstance(load_spec(run.to_json()), RunSpec)


def test_derived_specs_change_the_fingerprint():
    base = RunSpec(platform=get_platform("fugaku-production"),
                   app="LQCD", n_nodes=1024)
    for other in (
        RunSpec(platform=base.platform.with_os("mckernel"),
                app="LQCD", n_nodes=1024),
        RunSpec(platform=base.platform, app="LQCD", n_nodes=2048),
        RunSpec(platform=base.platform, app="LQCD", n_nodes=1024, seed=1),
    ):
        assert other.fingerprint() != base.fingerprint()


# -- validation names the offending field -------------------------------


def test_unknown_platform_field_is_named():
    payload = get_platform("ofp-default").to_dict()
    payload["frobnicate"] = 1
    with pytest.raises(ConfigurationError, match="frobnicate"):
        PlatformSpec.from_dict(payload)


def test_unknown_machine_is_named():
    with pytest.raises(ConfigurationError, match="machine.*'summit'"):
        PlatformSpec(name="p", machine="summit")


def test_bad_os_kind_is_named():
    with pytest.raises(ConfigurationError, match="os_kind"):
        PlatformSpec(name="p", machine="fugaku", os_kind="plan9")


def test_unknown_tuning_preset_is_named():
    with pytest.raises(ConfigurationError, match="tuning.*'mystery'"):
        PlatformSpec(name="p", machine="fugaku", tuning="mystery")


def test_unknown_tuning_override_field_is_named():
    with pytest.raises(ConfigurationError,
                       match="tuning_overrides.no_such_knob"):
        PlatformSpec(name="p", machine="fugaku",
                     tuning_overrides={"no_such_knob": True})


def test_mistyped_tuning_override_is_named():
    with pytest.raises(ConfigurationError,
                       match="tuning_overrides.tick_hz"):
        PlatformSpec(name="p", machine="fugaku",
                     tuning_overrides={"tick_hz": "fast"})


def test_bad_machine_override_is_named():
    with pytest.raises(ConfigurationError,
                       match="machine_overrides.n_nodes"):
        PlatformSpec(name="p", machine="fugaku",
                     machine_overrides={"n_nodes": "many"})
    with pytest.raises(ConfigurationError,
                       match="machine_overrides.node"):
        PlatformSpec(name="p", machine="fugaku",
                     machine_overrides={"node": "knl"})


def test_noise_and_mckernel_fields_validated():
    with pytest.raises(ConfigurationError, match="noise"):
        NoiseSwitches.from_dict({"include_straggler": True})
    with pytest.raises(ConfigurationError,
                       match="mckernel.memory_fraction"):
        PlatformSpec.from_dict({
            "name": "p", "machine": "fugaku",
            "mckernel": {"memory_fraction": 1.5},
        })


def test_run_spec_rejects_unknown_app_and_bad_counts():
    plat = get_platform("fugaku-production")
    with pytest.raises(ConfigurationError, match="app"):
        RunSpec(platform=plat, app="Linpack", n_nodes=4)
    with pytest.raises(ConfigurationError, match="n_nodes"):
        RunSpec(platform=plat, app="LQCD", n_nodes=0)


def test_invalid_json_reports_as_configuration_error():
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        PlatformSpec.from_json("{not json")


# -- registry -----------------------------------------------------------


def test_registry_has_the_papers_environments():
    names = platform_names()
    for expected in ("ofp-default", "fugaku-production", "a64fx-testbed",
                     "fugaku-mckernel", "fugaku-x2"):
        assert expected in names


def test_get_platform_unknown_lists_known():
    with pytest.raises(ConfigurationError, match="ofp-default"):
        get_platform("nonesuch")


def test_register_platform_rejects_silent_overwrite():
    spec = get_platform("ofp-default")
    with pytest.raises(ConfigurationError, match="already registered"):
        register_platform(spec)
    assert register_platform(spec, overwrite=True) is spec


# -- resolution ---------------------------------------------------------


@pytest.mark.parametrize("name", platform_names())
def test_registered_platforms_carry_machine_interconnect(name):
    """Every platform's OS must be composed with the *machine's*
    interconnect — the regression behind the omitted ``interconnect=``
    construction sites."""
    resolved = build(get_platform(name))
    from repro.net.fabric import fabric_for

    assert resolved.fabric == fabric_for(resolved.machine.interconnect)
    if resolved.spec.os_kind == "linux":
        assert (resolved.os_instance.interconnect
                == resolved.machine.interconnect)


def test_build_memoizes_and_fresh_bypasses():
    spec = get_platform("fugaku-production")
    assert build(spec) is build(spec)
    assert build(spec, fresh=True) is not build(spec)


def test_machine_overrides_resolve():
    spec = get_platform("fugaku-x2")
    machine = spec.resolved_machine()
    base = get_platform("fugaku-production").resolved_machine()
    assert machine.n_nodes == 2 * base.n_nodes
    assert machine.name == "Fugaku-x2"
    assert machine.node.name == base.node.name


def test_with_tuning_diff_reconstructs_sweep_tunings():
    """The Table 2 / Fig. 3 sweep becomes derived declarative specs
    that resolve back to dataclass-equal tunings."""
    base = get_platform("a64fx-testbed")
    for label, tuning in countermeasure_sweep(fugaku_production()).items():
        derived = base.with_tuning(tuning)
        assert derived.resolved_tuning() == tuning
        # ...and the derivation survives a JSON round trip.
        again = PlatformSpec.from_json(derived.to_json())
        assert again.resolved_tuning() == tuning


def test_noise_switches_reach_the_catalogue():
    testbed = build(get_platform("a64fx-testbed"))
    at_scale = build(get_platform("fugaku-production"))
    assert not any("straggler" in s.name
                   for s in testbed.noise_sources())
    assert any("straggler" in s.name
               for s in at_scale.noise_sources())


@pytest.mark.parametrize("app", ["Milc", "LQCD", "GeoFEM"])
def test_run_path_honours_include_stragglers(app):
    """A RunSpec samples the catalogue its noise switches select: the
    straggler-free testbed and the same spec with stragglers on are
    different cells with different times, not one result under two
    cache keys."""
    without = get_platform("a64fx-testbed")
    with_ = without.with_noise(include_stragglers=True)
    (quiet, noisy) = run_cells([
        RunSpec(platform=spec, app=app, n_nodes=16)
        for spec in (without, with_)])
    assert quiet.times != noisy.times
    # Everything but the noise catalogue is the same platform.
    assert quiet.breakdown.compute == noisy.breakdown.compute
    assert quiet.breakdown.init == noisy.breakdown.init


# -- CLI ----------------------------------------------------------------


def test_cli_platform_list_and_show(capsys):
    from repro.cli import main

    assert main(["platform", "list"]) == 0
    out = capsys.readouterr().out
    assert "fugaku-production" in out and "a64fx-testbed" in out

    assert main(["platform", "show", "fugaku-production"]) == 0
    shown = capsys.readouterr().out
    assert PlatformSpec.from_json(shown) == get_platform("fugaku-production")


@pytest.mark.parametrize("alias, name", [("ofp", "ofp-default"),
                                         ("fugaku", "fugaku-production")])
def test_cli_platform_show_resolves_aliases(capsys, alias, name):
    """``platform show`` takes the aliases ``compare --platform`` does."""
    from repro.cli import main

    assert main(["platform", "show", name]) == 0
    expected = capsys.readouterr().out
    assert main(["platform", "show", alias]) == 0
    assert capsys.readouterr().out == expected


def test_cli_validate_and_run_spec_file(tmp_path, capsys):
    from repro.cli import main

    plat_file = tmp_path / "plat.json"
    plat_file.write_text(get_platform("ofp-default").to_json(indent=2))
    assert main(["platform", "validate", str(plat_file)]) == 0
    assert "valid PlatformSpec" in capsys.readouterr().out

    run = RunSpec(platform=get_platform("ofp-default"),
                  app="Milc", n_nodes=64, n_runs=2)
    run_file = tmp_path / "run.json"
    run_file.write_text(run.to_json(indent=2))
    assert main(["run", str(run_file), "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "Milc" in out
    assert run.fingerprint() in out


def test_cli_experiments_reject_run_spec(tmp_path):
    from repro.cli import main

    run = RunSpec(platform=get_platform("ofp-default"),
                  app="Milc", n_nodes=64)
    bad = tmp_path / "run.json"
    bad.write_text(run.to_json())
    assert main(["experiments", "eq1", "--spec", str(bad),
                 "--no-cache"]) == 2


def test_cli_spec_retargets_platform_experiments(tmp_path, capsys):
    from repro.cli import main

    spec_file = tmp_path / "testbed.json"
    spec_file.write_text(get_platform("a64fx-testbed").to_json(indent=2))
    assert main(["experiments", "table2", "--spec", str(spec_file),
                 "--no-cache"]) == 0
    assert "Table 2" in capsys.readouterr().out

    assert main(["experiments", "table1", "--spec", str(spec_file),
                 "--no-cache"]) == 2
    assert "platform-param" in capsys.readouterr().err
