"""Experiment registry: one entry per paper table/figure.

``run_experiment("table2")`` regenerates that artefact; ``run_all``
sweeps everything (the EXPERIMENTS.md generator and the benchmark
harness both drive this registry).
"""

from __future__ import annotations

from typing import Callable

from . import (
    eq1,
    exascale,
    faultsim,
    fig1,
    fig2,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    summary,
    table1,
    table2,
)
from .report import ExperimentResult

#: experiment id -> (title, runner)
EXPERIMENTS: dict[str, tuple[str, Callable[..., ExperimentResult]]] = {
    "table1": ("Platform overview", table1.run),
    "eq1": ("Eq. 1 worked example", eq1.run),
    "table2": ("Noise countermeasure effectiveness", table2.run),
    "fig1": ("Noise impact on BSP apps (conceptual, generated)", fig1.run),
    "fig2": ("IHK/McKernel architecture (live rendering)", fig2.run),
    "fig3": ("FWQ noise time series", fig3.run),
    "fig4": ("FWQ latency CDFs at scale", fig4.run),
    "fig5": ("CORAL apps on OFP", fig5.run),
    "fig6": ("LQCD/GeoFEM/GAMERA on OFP", fig6.run),
    "fig7": ("LQCD/GeoFEM/GAMERA on Fugaku", fig7.run),
    "summary": ("Headline averages", summary.run),
    # Extension (not a paper artefact): the §8 outlook quantified.
    "exascale": ("Projection beyond Fugaku", exascale.run),
    # Extension: §6 operational failures, injected and survived.
    "faults": ("Fault sensitivity at scale", faultsim.run),
}

#: Experiments derived from other experiments' results: id -> (input
#: ids, function of those results in that order).  The engine runs an
#: input only when the same session has not produced it already.
DERIVED: dict[str, tuple[tuple[str, ...], Callable[..., ExperimentResult]]] = {
    "summary": (summary.INPUTS, summary.from_results),
}


def run_experiment(experiment_id: str, fast: bool = True, seed: int = 0,
                   platform=None) -> ExperimentResult:
    """Run one registered experiment by id.

    Fan-out and memoization come from the ambient
    :func:`repro.perf.perf_context`; the output is bit-identical to
    the serial, uncached run either way.

    ``platform`` (a :class:`repro.platform.PlatformSpec`) re-targets
    the experiment at another platform; only experiments whose runner
    is platform-parameterised accept it.
    """
    from ..engine import ExecutionEngine

    return ExecutionEngine().run_experiment(experiment_id, fast=fast,
                                            seed=seed, platform=platform)


def run_all(fast: bool = True, seed: int = 0) -> dict[str, ExperimentResult]:
    """Run every experiment, in registry order.

    Runs under the ambient context, so a fanned-out context shares one
    worker pool across every experiment's sweeps.
    """
    from ..engine import ExecutionEngine

    return ExecutionEngine().run_experiments(EXPERIMENTS, fast=fast,
                                             seed=seed)
