"""Every spec knob moves a number.

Each independently settable field of a platform document — its
``name``, every ``tuning_overrides`` / ``machine_overrides`` key, and
the ``noise`` and ``mckernel`` switches — is perturbed one at a time,
through spec JSON alone, on every platform of a small registry grid
(6 platforms x 6 apps x {4, 16} nodes).  :data:`KNOBS` says what each
one must do:

* ``RUN`` — moves a :class:`~repro.runtime.runner.RunResult` time or
  breakdown in at least one cell;
* ``ARTEFACT`` — moves no cell, but moves the named artefact rendered
  on the named platform;
* ``VALIDATION`` — only changes which node counts validate;
* ``NAME`` — a display name: moves no time anywhere.

A spec field without a row fails, so a knob that moves nothing (one
that changes the cache key but no result) cannot be added unnoticed.
The registry ids (``machine``, ``os_kind``, ``tuning``) select whole
presets and the RunSpec coordinates are the workload; neither is a
knob.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib

import pytest

from repro.errors import ConfigurationError
from repro.kernel.tuning import LinuxTuning
from repro.platform import (
    MACHINES,
    McKernelSwitches,
    NoiseSwitches,
    PlatformSpec,
    RunSpec,
    get_platform,
    run_cells,
)
from repro.platform.spec import MACHINE_OVERRIDE_FIELDS

PLATFORMS = ("ofp-default", "ofp-mckernel", "fugaku-production",
             "fugaku-mckernel", "fugaku-untuned", "a64fx-testbed")
APPS = ("AMG2013", "Milc", "Lulesh", "LQCD", "GeoFEM", "GAMERA")
NODES = (4, 16)

RUN, ARTEFACT, VALIDATION, NAME = "run", "artefact", "validation", "name"


def _other(value):
    """A value of the field's type other than ``value``."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        return next(m for m in type(value) if m is not value).value
    raise TypeError(f"no generic perturbation for {value!r}")


def _other_fabric(interconnect: str) -> str:
    fabrics = {m().interconnect for m in MACHINES.values()}
    return next(f for f in sorted(fabrics) if f != interconnect)


#: Spec field -> (what it must move, perturbation of the current value
#: (None: :func:`_other`), artefact/platform for ``ARTEFACT`` rows).
KNOBS = {
    "name": (NAME, lambda _: "X", None),
    "tuning_overrides.name": (NAME, lambda _: "X", None),
    "tuning_overrides.nohz_full": (RUN, None, None),
    "tuning_overrides.cgroup_cpu_isolation": (RUN, None, None),
    "tuning_overrides.irq_to_assistant": (RUN, None, None),
    "tuning_overrides.bind_kworkers": (RUN, None, None),
    "tuning_overrides.bind_blkmq": (RUN, None, None),
    "tuning_overrides.stop_pmu_reads": (RUN, None, None),
    "tuning_overrides.large_pages": (RUN, None, None),
    "tuning_overrides.tlb_flush_mode": (RUN, None, None),
    "tuning_overrides.sector_cache": (RUN, None, None),
    "tuning_overrides.sar_enabled": (RUN, None, None),
    "tuning_overrides.tick_hz": (RUN, lambda hz: hz * 2.5, None),
    "machine_overrides.name": (NAME, lambda _: "X", None),
    "machine_overrides.n_nodes": (VALIDATION, lambda _: 8, None),
    "machine_overrides.interconnect": (RUN, _other_fabric, None),
    "noise.include_stragglers": (RUN, None, None),
    "mckernel.memory_fraction": (ARTEFACT, lambda f: f / 2,
                                 ("fig2", "fugaku-mckernel")),
    "mckernel.picodriver": (RUN, None, None),
}


def _spec_fields() -> set[str]:
    """Every independently settable field of a platform document."""
    return {
        "name",
        *(f"tuning_overrides.{f.name}"
          for f in dataclasses.fields(LinuxTuning)),
        *(f"machine_overrides.{key}" for key in MACHINE_OVERRIDE_FIELDS),
        *(f"noise.{key}" for key in NoiseSwitches().to_dict()),
        *(f"mckernel.{key}" for key in McKernelSwitches().to_dict()),
    }


def _current(spec: PlatformSpec, knob: str):
    group, _, key = knob.partition(".")
    if group == "tuning_overrides":
        return getattr(spec.resolved_tuning(), key)
    if group == "machine_overrides":
        return getattr(spec.resolved_machine(), key)
    if group in ("noise", "mckernel"):
        return spec.to_dict()[group][key]
    return spec.to_dict()[knob]


def _perturbed(spec: PlatformSpec, knob: str) -> PlatformSpec:
    """``spec`` with one field changed, rebuilt from its JSON."""
    perturb = KNOBS[knob][1] or _other
    value = perturb(_current(spec, knob))
    payload = spec.to_dict()
    group, _, key = knob.partition(".")
    if key:
        payload[group][key] = value
    else:
        payload[group] = value
    return PlatformSpec.from_dict(payload)


def _cells(spec: PlatformSpec) -> list:
    """Each grid cell's (times, breakdown), or "refused"."""
    out = []
    for app in APPS:
        for n in NODES:
            cell = RunSpec(platform=spec, app=app, n_nodes=n, n_runs=2)
            try:
                (result,) = run_cells([cell])
            except ConfigurationError:
                out.append("refused")
            else:
                out.append((result.times,
                            dataclasses.astuple(result.breakdown)))
    return out


@pytest.fixture(scope="module")
def baseline() -> dict[str, list]:
    return {name: _cells(get_platform(name)) for name in PLATFORMS}


def test_every_spec_field_has_a_row():
    assert set(KNOBS) == _spec_fields()


@pytest.mark.parametrize("knob", sorted(KNOBS))
def test_knob_moves_what_its_row_says(knob, baseline):
    kind, _, where = KNOBS[knob]
    moved = {}
    for name in PLATFORMS:
        cells = _cells(_perturbed(get_platform(name), knob))
        moved[name] = [i for i, (a, b) in
                       enumerate(zip(baseline[name], cells)) if a != b]
        if kind == VALIDATION:
            for i, (a, b) in enumerate(zip(baseline[name], cells)):
                n_nodes = NODES[i % len(NODES)]
                assert a != "refused"
                assert (b == "refused") == (n_nodes > 8), (name, i)
                assert b == "refused" or a == b, (name, i)
    if kind == RUN:
        assert any(moved.values()), f"{knob} moved no cell"
        return
    if kind == VALIDATION:
        return
    assert not any(moved.values()), f"{knob} moved cells: {moved}"
    if kind == ARTEFACT:
        artefact, platform = where
        module = importlib.import_module(f"repro.experiments.{artefact}")
        spec = get_platform(platform)
        base = module.run(fast=True, seed=0, platform=spec).data
        new = module.run(fast=True, seed=0,
                         platform=_perturbed(spec, knob)).data
        assert base != new, f"{knob} moved no cell and not {artefact}"
