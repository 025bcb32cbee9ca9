"""Shared machinery for the application figures (Figs. 5-7).

Each figure is a node-count sweep of Linux-normalised McKernel
performance for a set of applications on one *platform* — a
declarative :class:`~repro.platform.spec.PlatformSpec` resolved
through :func:`repro.platform.build`, so a figure can be re-run on a
user-defined machine purely from JSON.
"""

from __future__ import annotations

from ..platform import PlatformSpec, sweep_platform_apps
from ..runtime.runner import Comparison
from .asciiplot import line_plot
from .report import ExperimentResult, format_series, format_table


def sweep_apps(
    platform: PlatformSpec,
    apps: list[str],
    node_counts: list[int],
    n_runs: int,
    seed: int,
) -> dict[str, list[Comparison]]:
    """Linux-vs-McKernel comparisons for every (app, node count).

    Both OS personalities are derived from ``platform`` and the full
    (app, OS, n_nodes) cell grid is flattened into one
    :func:`repro.perf.execute_cells` fan-out so a parallel context
    keeps all workers busy across application boundaries; results are
    reassembled in (app, node count) order, bit-identical to a serial
    sweep.
    """
    return sweep_platform_apps(platform, apps, node_counts, n_runs, seed)


def figure_result(
    experiment_id: str,
    title: str,
    comparisons: dict[str, list[Comparison]],
    paper_reference: dict,
) -> ExperimentResult:
    blocks = []
    data: dict[str, dict] = {}
    rows = []
    for app, comps in comparisons.items():
        xs = [c.n_nodes for c in comps]
        ys = [c.relative_performance for c in comps]
        yerr = [
            (c.linux.std_time / c.linux.mean_time
             + c.mckernel.std_time / c.mckernel.mean_time) * c.relative_performance
            for c in comps
        ]
        blocks.append(format_series(
            f"{app} (McKernel relative to Linux=1.0)", xs, ys, yerr,
            x_label="nodes", y_label="relative perf",
        ))
        data[app] = {
            "nodes": xs,
            "relative_performance": ys,
            "yerr": yerr,
            "linux_seconds": [c.linux.mean_time for c in comps],
            "mckernel_seconds": [c.mckernel.mean_time for c in comps],
        }
        best = max(comps, key=lambda c: c.relative_performance)
        rows.append([app, f"{best.n_nodes}",
                     f"+{best.speedup_percent:.1f}%"])
    summary = format_table(["Application", "at nodes", "peak McKernel gain"],
                           rows, title="peak gains")
    plot = line_plot(
        {app: (d["nodes"], d["relative_performance"])
         for app, d in data.items()},
        x_label="nodes", y_label="McKernel rel. perf (Linux = 1)",
        logx=True,
    )
    return ExperimentResult(
        experiment_id=experiment_id,
        title=title,
        data=data,
        text="\n\n".join(blocks + [plot, summary]),
        paper_reference=paper_reference,
    )
