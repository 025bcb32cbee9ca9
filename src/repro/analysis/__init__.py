"""Static analysis for the simulator's one non-negotiable invariant:
byte-identical output across seeds, ``--jobs`` values and cache tiers.

The **determinism sanitizer** (:mod:`repro.analysis.rules`,
:mod:`repro.analysis.linter`) is an AST lint pass with ~10 custom
rules (wall clocks, global RNG, filesystem/set iteration order,
process-salted identities, ...) and a checked-in suppression baseline
(:mod:`repro.analysis.baseline`).

CLI: ``repro analyze lint [paths...]`` (the gate CI runs) and ``repro
analyze rules``.  See ``docs/ANALYSIS.md`` for the rule catalog and
report formats.
"""

from .baseline import DEFAULT_BASELINE_PATH, Baseline, BaselineEntry
from .linter import LintReport, lint_paths
from .rules import RULES, Finding, LintRule

__all__ = [
    "Baseline",
    "BaselineEntry",
    "DEFAULT_BASELINE_PATH",
    "Finding",
    "LintReport",
    "LintRule",
    "RULES",
    "lint_paths",
]
