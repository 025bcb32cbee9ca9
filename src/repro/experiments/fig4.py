"""FIG4 — Figure 4: FWQ latency CDFs at scale.

Five curves, as in the paper:

* OFP, 1,024 nodes: Linux vs IHK/McKernel;
* Fugaku: Linux at full scale (158,976 nodes), Linux on 24 racks
  (9,216 nodes), McKernel on 24 racks.

Each configuration runs ten ~6-minute FWQ measurements on every
application core.  The pooled distribution is evaluated with the exact
iteration-length mixture (machine scale enters through the pool's
sample count, which controls how deep into the tail the observed
maximum reaches), and cross-validated against the Monte-Carlo
MPI-FWQ with its worst-100-node in-situ selection.
"""

from __future__ import annotations

import numpy as np

from ..apps.fwq import DEFAULT_QUANTUM, FwqConfig, run_mpi_fwq
from ..hardware.machines import NODES_PER_RACK
from ..noise.analytic import IterationMixture
from ..platform import ResolvedPlatform, build, get_platform
from ..sim.rng import fnv1a_64
from ..units import to_ms
from .report import ExperimentResult, format_table


def _curve(
    resolved: ResolvedPlatform,
    n_nodes: int,
    cores_per_node: int,
    config: FwqConfig,
    seed: int,
    mc_nodes: int,
) -> dict:
    os_instance = resolved.os_instance
    sources = resolved.noise_sources()
    n_iter = config.iterations_per_run * config.repeats
    pool = float(n_nodes) * cores_per_node * n_iter
    if sources:
        mixture = IterationMixture(sources, config.quantum)
        # The grid ends at the expected observed maximum of the pool.
        expected_max = mixture.expected_max(pool)
        xs, cdf = mixture.cdf_curve(n_points=256, x_max=expected_max)
        quantiles = {
            "p50": mixture.quantile(0.5),
            "p999": mixture.quantile(0.999),
            "p999999": mixture.quantile(0.999999),
            "expected_max": expected_max,
        }
    else:
        xs = np.array([config.quantum, config.quantum])
        cdf = np.array([1.0, 1.0])
        quantiles = {k: config.quantum
                     for k in ("p50", "p999", "p999999", "expected_max")}
    # Monte-Carlo cross-check on an explicit node subset.
    rng = np.random.default_rng([seed, fnv1a_64(os_instance.kind), n_nodes])
    mc = run_mpi_fwq(os_instance, min(n_nodes, mc_nodes), config, rng,
                     cores_per_node=cores_per_node,
                     max_explicit_nodes=mc_nodes)
    mc_max = mc.max_length
    return {
        "lengths_ms": [to_ms(float(x)) for x in xs],
        "cdf": [float(c) for c in cdf],
        "quantiles_ms": {k: to_ms(v) for k, v in quantiles.items()},
        "mc_observed_max_ms": to_ms(mc_max),
        "pool_samples": pool,
    }


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    config = FwqConfig(
        quantum=DEFAULT_QUANTUM,
        duration=60.0 if fast else 360.0,
        repeats=2 if fast else 10,
    )
    mc_nodes = 24 if fast else 128

    ofp_linux = build(get_platform("ofp-default"))
    ofp_mck = build(get_platform("ofp-mckernel"))
    fug_linux = build(get_platform("fugaku-production"))
    fug_mck = build(get_platform("fugaku-mckernel"))

    racks24 = 24 * NODES_PER_RACK
    curves = {
        "OFP Linux (1,024 nodes)": _curve(
            ofp_linux, 1024, 256, config, seed, mc_nodes),
        "OFP McKernel (1,024 nodes)": _curve(
            ofp_mck, 1024, 256, config, seed, mc_nodes),
        "Fugaku Linux (full scale)": _curve(
            fug_linux, fug_linux.machine.n_nodes, 48, config, seed,
            mc_nodes),
        "Fugaku Linux (24 racks)": _curve(
            fug_linux, racks24, 48, config, seed + 1, mc_nodes),
        "Fugaku McKernel (24 racks)": _curve(
            fug_mck, racks24, 48, config, seed, mc_nodes),
    }

    rows = []
    for name, c in curves.items():
        q = c["quantiles_ms"]
        rows.append([
            name,
            f"{q['p50']:.2f}",
            f"{q['p999']:.2f}",
            f"{q['expected_max']:.2f}",
            f"{c['mc_observed_max_ms']:.2f}",
        ])
    text = format_table(
        ["Configuration", "P50 (ms)", "P99.9 (ms)",
         "expected max (ms)", "MC max (ms, subset)"],
        rows,
        title="Figure 4: FWQ latency distribution tails "
              f"(quantum {to_ms(config.quantum):.1f} ms)",
    )
    # The tail view (1 - CDF, log x): where the five curves separate.
    from .asciiplot import line_plot

    tail_curves = {}
    for name, c in curves.items():
        xs = [x for x in c["lengths_ms"] if x > 0]
        sf = [max(1e-12, 1.0 - v) for v in c["cdf"][: len(xs)]]
        # Plot log10 of the survival probability against length.
        tail_curves[name] = (xs, [np.log10(s) for s in sf])
    text += "\n\n" + line_plot(
        tail_curves, x_label="iteration length (ms)",
        y_label="log10 P(length > x)", height=14,
    )
    return ExperimentResult(
        experiment_id="fig4",
        title="FWQ latency CDF on OFP and Fugaku, Linux vs McKernel",
        data=curves,
        text=text,
        paper_reference={
            "ofp_linux_max_ms": 24.0,
            "ofp_mckernel_max_ms": "< 7",
            "fugaku_linux_full_max_ms": 10.0,
            "fugaku_24rack_vs_mckernel": "only slightly worse",
        },
    )
