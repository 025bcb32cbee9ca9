"""TAB2 — Table 2: effectiveness of individual noise-elimination
techniques, measured with FWQ on the 16-node A64FX testbed (§6.3).

For each row, one countermeasure is disabled against the fully-tuned
baseline and FWQ (~6.5 ms quanta) reports the maximum noise length and
the Eq. 2 noise rate of the pooled multi-core series.  The statistics
are reduced from the charged iterations alone
(:func:`~repro.noise.sampler.pooled_fwq_stats`), as the paper reduces
MPI-FWQ in situ; the dense series is never built, yet every digit is
that of ``multi_core_fwq(...).ravel()``.
"""

from __future__ import annotations

import numpy as np

from ..apps.fwq import FwqConfig, run_fwq
from ..errors import ConfigurationError
from ..noise.mitigation import TABLE2_PAPER, countermeasure_sweep
# multi_core_fwq stays bound: perfbench's span hooks patch it here.
from ..noise.sampler import multi_core_fwq, pooled_fwq_stats  # noqa: F401
from ..platform import PlatformSpec, build, get_platform
from ..sim.rng import fnv1a_64
from ..units import to_us
from .report import ExperimentResult, format_table


def run(fast: bool = True, seed: int = 0,
        platform: PlatformSpec | None = None) -> ExperimentResult:
    """``fast`` samples 4 cores x ~10 minutes per row; the full mode
    samples 16 cores x 1 hour (closer to the paper's pooled volume)."""
    if platform is None:
        platform = get_platform("a64fx-testbed")
    if platform.os_kind != "linux":
        raise ConfigurationError(
            "table2 sweeps Linux countermeasures; platform "
            f"{platform.name!r} has os_kind={platform.os_kind!r}")
    config = FwqConfig(duration=600.0 if fast else 3600.0)
    n_cores = 4 if fast else 16
    rows = []
    data: dict[str, dict] = {}
    base_tuning = platform.resolved_tuning()
    for label, tuning in countermeasure_sweep(base_tuning).items():
        rng = np.random.default_rng([seed, fnv1a_64(label)])
        resolved = build(platform.with_tuning(tuning))
        sources = resolved.noise_sources()
        _, max_noise, rate = pooled_fwq_stats(
            sources, config.quantum, config.iterations_per_run,
            n_cores, rng,
        )
        paper_max, paper_rate = TABLE2_PAPER[label]
        rows.append([
            label,
            f"{to_us(max_noise):.2f}",
            f"{rate:.2e}",
            f"{paper_max:.2f}",
            f"{paper_rate:.2e}",
        ])
        data[label] = {
            "max_noise_us": to_us(max_noise),
            "noise_rate": rate,
            "paper_max_us": paper_max,
            "paper_rate": paper_rate,
        }
    text = format_table(
        ["Disabled technique", "Max noise (us)", "Noise rate",
         "Paper max (us)", "Paper rate"],
        rows,
        title="Table 2: effectiveness of individual noise elimination "
              "techniques (FWQ, A64FX testbed)",
    )
    return ExperimentResult(
        experiment_id="table2",
        title="Effectiveness of individual noise elimination techniques",
        data=data,
        text=text,
        paper_reference=dict(TABLE2_PAPER),
    )
