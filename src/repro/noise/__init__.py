"""OS noise: sources, samplers, analytic models, countermeasures."""

from .analytic import (
    IterationMixture,
    NoiseGroup,
    eq1_delay,
    groups_from_sources,
    max_noise_length,
    noise_lengths,
    noise_rate,
)
from .catalog import (
    khugepaged_source,
    noise_sources_for,
    straggler_source,
    total_duty_cycle,
)
from .injection import (
    InjectionSpec,
    SensitivityPoint,
    inject_and_measure,
    sensitivity_sweep,
)
from .mitigation import TABLE2_PAPER, TABLE2_ROWS, countermeasure_sweep
from .spectral import SpectralPeak, find_periodic_noise, noise_spectrum
from .sampler import (
    BarrierDelaySampler,
    WorstNodes,
    fwq_iteration_lengths,
    multi_core_fwq,
    pooled_fwq_stats,
    stream_worst_nodes,
    worst_nodes,
)
from .source import NoiseSource, Occurrence, irq_source, tick_source

__all__ = [
    "IterationMixture",
    "NoiseGroup",
    "eq1_delay",
    "groups_from_sources",
    "max_noise_length",
    "noise_lengths",
    "noise_rate",
    "khugepaged_source",
    "noise_sources_for",
    "straggler_source",
    "total_duty_cycle",
    "TABLE2_PAPER",
    "TABLE2_ROWS",
    "countermeasure_sweep",
    "InjectionSpec",
    "SensitivityPoint",
    "inject_and_measure",
    "sensitivity_sweep",
    "SpectralPeak",
    "find_periodic_noise",
    "noise_spectrum",
    "BarrierDelaySampler",
    "fwq_iteration_lengths",
    "multi_core_fwq",
    "pooled_fwq_stats",
    "stream_worst_nodes",
    "WorstNodes",
    "worst_nodes",
    "NoiseSource",
    "Occurrence",
    "irq_source",
    "tick_source",
]
