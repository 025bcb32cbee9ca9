"""Resolving declarative specs into booted composites, and the
spec-driven sweep entry points the experiments consume.

:func:`build` is the only place a :class:`PlatformSpec` turns into
live objects; resolutions are memoized by canonical JSON so every
sweep that names the same platform shares one booted instance (the
pre-refactor behaviour of constructing one kernel per sweep, made
global).  :func:`run_cells` / :func:`compare_platforms` /
:func:`sweep_platform_apps` construct spec-carrying
:class:`~repro.perf.executor.RunCell` grids, so the run cache keys
every result by the SHA-256 of its RunSpec JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..hardware.machines import Machine
from ..kernel.base import OsInstance
from ..kernel.tuning import LinuxTuning
from ..net.fabric import FabricSpec
from .compose import compose_os, noise_sources, resolve_fabric
from .spec import PlatformSpec, RunSpec

if TYPE_CHECKING:
    from ..noise.source import NoiseSource
    from ..runtime.runner import Comparison, RunResult


@dataclass(frozen=True)
class ResolvedPlatform:
    """The concrete composite behind one PlatformSpec."""

    spec: PlatformSpec
    machine: Machine
    os_instance: OsInstance
    fabric: FabricSpec
    tuning: LinuxTuning

    def noise_sources(self) -> "list[NoiseSource]":
        """The platform's noise catalogue, honouring the spec's
        noise switches."""
        return noise_sources(
            self.os_instance,
            include_stragglers=self.spec.noise.include_stragglers,
        )


#: canonical spec JSON -> resolved composite (booted instances are
#: shareable across sweeps: run results depend only on cell values).
_RESOLVED: dict[str, ResolvedPlatform] = {}


def build(spec: PlatformSpec, fresh: bool = False) -> ResolvedPlatform:
    """Resolve a spec into ``(machine, OS, fabric, tuning)``.

    ``fresh=True`` bypasses the memo and boots a new instance — needed
    when the caller mutates OS-level state (e.g. spawning processes,
    as the Fig. 2 live rendering does).
    """
    key = spec.canonical_json()
    if not fresh:
        hit = _RESOLVED.get(key)
        if hit is not None:
            return hit
    machine = spec.resolved_machine()
    tuning = spec.resolved_tuning()
    os_instance = compose_os(
        machine, spec.os_kind, tuning,
        mck_memory_fraction=spec.mckernel.memory_fraction,
        mck_picodriver=spec.mckernel.picodriver,
    )
    resolved = ResolvedPlatform(
        spec=spec,
        machine=machine,
        os_instance=os_instance,
        fabric=resolve_fabric(machine),
        tuning=tuning,
    )
    if not fresh:
        _RESOLVED[key] = resolved
    return resolved


def clear_build_cache() -> int:
    """Drop all memoized resolutions (tests, long-lived processes)."""
    n = len(_RESOLVED)
    _RESOLVED.clear()
    return n


def run_cells(specs: Sequence[RunSpec]) -> "list[RunResult]":
    """Execute one RunSpec per cell through the perf executor.

    Results come back in spec order, bit-identical to a serial run;
    cache keys are the SHA-256 of each spec's canonical JSON.
    """
    from ..perf.executor import RunCell, adaptive_fields, execute_cells

    adaptive = adaptive_fields()
    return execute_cells([RunCell(spec, **adaptive) for spec in specs])


def compare_platforms(
    platform: PlatformSpec,
    app: str,
    node_counts: Sequence[int],
    n_runs: int = 3,
    seed: int = 0,
) -> "list[Comparison]":
    """Linux-vs-McKernel comparison sweep, declaratively.

    ``platform`` fixes machine/tuning/noise; both OS personalities are
    derived from it, mirroring the paper's methodology of running each
    pair on the exact same nodes (here: the same seed stream).
    """
    from ..runtime.runner import Comparison

    linux_spec = platform.with_os("linux")
    mck_spec = platform.with_os("mckernel")
    specs = []
    for n in node_counts:
        for os_spec in (linux_spec, mck_spec):
            specs.append(RunSpec(platform=os_spec, app=app, n_nodes=n,
                                 n_runs=n_runs, seed=seed))
    results = run_cells(specs)
    return [
        Comparison(n_nodes=n, linux=results[2 * i],
                   mckernel=results[2 * i + 1])
        for i, n in enumerate(node_counts)
    ]


def sweep_platform_apps(
    platform: PlatformSpec,
    apps: Sequence[str],
    node_counts: Sequence[int],
    n_runs: int,
    seed: int,
) -> "dict[str, list[Comparison]]":
    """The Figs. 5-7 grid: every (app, OS, node count) cell of one
    platform, flattened into a single executor fan-out."""
    from ..runtime.runner import Comparison

    linux_spec = platform.with_os("linux")
    mck_spec = platform.with_os("mckernel")
    specs = []
    for app in apps:
        for n in node_counts:
            for os_spec in (linux_spec, mck_spec):
                specs.append(RunSpec(platform=os_spec, app=app,
                                     n_nodes=n, n_runs=n_runs,
                                     seed=seed))
    results = run_cells(specs)
    out: dict[str, list[Comparison]] = {}
    flat = iter(results)
    for app in apps:
        out[app] = [
            Comparison(n_nodes=n, linux=next(flat), mckernel=next(flat))
            for n in node_counts
        ]
    return out
