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
  runqueues, the run cache), fed by tracer-style ambient hooks;
* the **crash-consistency analyzer**
  (:mod:`repro.analysis.crashsafe`, CC001/CC007) — containment
  of raw durability syscalls to :mod:`repro.durable` and
  crash-absorbing handlers.

CLI: ``repro analyze lint [paths...]``, ``repro analyze crash
[paths...]``, ``repro analyze rules`` and ``repro analyze race
<experiment>``; the ``repro-lint`` console script is the same gate CI
runs.  See ``docs/ANALYSIS.md`` for the rule catalogs and report
formats.
"""

from .baseline import DEFAULT_BASELINE_PATH, Baseline, BaselineEntry
from .crashsafe import (
    CC_RULES,
    DEFAULT_CRASH_BASELINE_PATH,
    CrashReport,
    crash_report,
    run_crash,
)
from .linter import LintReport, lint_paths
from .race import (
    RaceDetector,
    RaceViolation,
    detecting,
    get_race_detector,
)
from .rules import ALL_RULES_BY_ID, RULES, Finding, LintRule

__all__ = [
    "ALL_RULES_BY_ID",
    "Baseline",
    "BaselineEntry",
    "CC_RULES",
    "CrashReport",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_CRASH_BASELINE_PATH",
    "Finding",
    "LintReport",
    "LintRule",
    "RULES",
    "RaceDetector",
    "RaceViolation",
    "crash_report",
    "detecting",
    "get_race_detector",
    "lint_paths",
    "run_crash",
]
