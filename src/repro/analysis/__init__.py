"""Static analysis for the simulator's one non-negotiable invariant:
byte-identical output across seeds, ``--jobs`` values and cache tiers.

Two instruments, one subsystem:

* the **determinism sanitizer** (:mod:`repro.analysis.rules`,
  :mod:`repro.analysis.linter`) — an AST lint pass with ~10 custom
  rules (wall clocks, global RNG, filesystem/set iteration order,
  process-salted identities, ...) and a checked-in suppression
  baseline (:mod:`repro.analysis.baseline`);
* the **simulated-resource race detector**
  (:mod:`repro.analysis.race`, :mod:`repro.analysis.runrace`) — a
  lockdep-style ordering/ownership/coherence checker over the
  simulation's own shared resources (IKC rings, memcg accounting,
  runqueues, the run cache), fed by tracer-style ambient hooks.

CLI: ``repro analyze lint [paths...]`` (the gate CI runs), ``repro
analyze rules`` and ``repro analyze race <experiment>``.  See
``docs/ANALYSIS.md`` for the rule catalog and report formats.
"""

from .baseline import DEFAULT_BASELINE_PATH, Baseline, BaselineEntry
from .linter import LintReport, lint_paths
from .race import (
    RaceDetector,
    RaceViolation,
    detecting,
    get_race_detector,
)
from .rules import RULES, Finding, LintRule

__all__ = [
    "Baseline",
    "BaselineEntry",
    "DEFAULT_BASELINE_PATH",
    "Finding",
    "LintReport",
    "LintRule",
    "RULES",
    "RaceDetector",
    "RaceViolation",
    "detecting",
    "get_race_detector",
    "lint_paths",
]
