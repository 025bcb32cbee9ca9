"""Determinism sanitizer driver: files in, deterministic report out.

``repro analyze lint [paths...]`` parses every ``.py`` file under the
given paths, runs the :mod:`repro.analysis.rules` catalog over each,
subtracts the checked-in baseline, and renders findings sorted by
location — the same bytes on every machine, which is what lets CI diff
the gate's output.

Exit codes: ``0`` clean (possibly with baselined suppressions), ``1``
at least one unsuppressed finding, ``2`` usage error.
"""

from __future__ import annotations

import ast
import json
import pathlib
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..errors import ConfigurationError
from .baseline import DEFAULT_BASELINE_PATH, Baseline
from .rules import RULES, FileChecker, Finding

__all__ = ["LintReport", "lint_paths", "canonical_path"]

#: Path segment that anchors canonical finding paths: anything inside
#: the installed/checked-out ``repro`` package reports as
#: ``repro/<subpath>`` regardless of where the tree lives on disk, so
#: baseline entries are machine-independent.
_PACKAGE_MARKER = "/repro/"


def canonical_path(path: pathlib.Path) -> str:
    """Stable, machine-independent identity of a linted file."""
    p = path.resolve().as_posix()
    if _PACKAGE_MARKER in p:
        return "repro/" + p.rsplit(_PACKAGE_MARKER, 1)[1]
    try:
        return path.resolve().relative_to(
            pathlib.Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def iter_python_files(paths: Sequence[str | pathlib.Path]
                      ) -> list[pathlib.Path]:
    """Every ``.py`` file under ``paths``, sorted (the linter applies
    its own DET003 discipline to itself)."""
    out: list[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            out.append(path)
        else:
            raise ConfigurationError(f"lint target {raw!r} not found")
    return out


def lint_file(path: pathlib.Path) -> list[Finding]:
    """All rule hits in one file (baseline not applied)."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise ConfigurationError(f"{path}: not parseable: {exc}")
    checker = FileChecker(canonical_path(path), source, tree)
    checker.visit(tree)
    return checker.findings


@dataclass
class LintReport:
    """Outcome of one lint run: surviving findings + suppressions."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    stale_baseline: list = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(
            f"{len(self.findings)} finding(s) "
            f"({len(self.suppressed)} suppressed by baseline) "
            f"across {self.files_checked} file(s)")
        for entry in self.stale_baseline:
            lines.append(
                f"stale baseline entry (matched nothing): "
                f"{entry.rule} {entry.path} [{entry.scope}] "
                f"{entry.snippet!r}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "files_checked": self.files_checked,
            "findings": [vars(f) for f in self.findings],
            "suppressed": [vars(f) for f in self.suppressed],
            "stale_baseline": [vars(e) for e in self.stale_baseline],
        }


def lint_paths(paths: Sequence[str | pathlib.Path],
               baseline: Optional[Baseline] = None) -> LintReport:
    """Lint every ``.py`` under ``paths``; findings sorted by
    ``(path, line, col, rule)`` so the report is byte-deterministic."""
    report = LintReport()
    all_findings: list[Finding] = []
    for path in iter_python_files(paths):
        report.files_checked += 1
        all_findings.extend(lint_file(path))
    all_findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    for finding in all_findings:
        if baseline is not None and baseline.suppresses(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    if baseline is not None:
        report.stale_baseline = baseline.stale_entries()
    return report


def run_rules(output_format: str = "text", out=None) -> int:
    """Body of ``repro analyze rules``: the machine-readable
    rule catalogue ``tools/gen_api.py`` and the docs consume, so the
    tables in ``docs/ANALYSIS.md``/``docs/API.md`` cannot drift from
    the code.  JSON output is canonical (sorted keys, fixed
    separators)."""
    from ..obs.export import canonical_json

    if out is None:  # bind at call time so stream capture works
        out = sys.stdout
    if output_format == "json":
        payload = [{"rule": r.rule_id, "title": r.title,
                    "fixit": r.fixit} for r in RULES]
        print(canonical_json(payload), file=out)
    else:
        for rule in RULES:
            print(f"{rule.rule_id}  {rule.title}", file=out)
    return 0


def run_lint(paths: Sequence[str] | None = None,
             baseline_path: Optional[str] = None,
             no_baseline: bool = False,
             output_format: str = "text",
             prune_baseline: bool = False,
             out=None) -> int:
    """Body of ``repro analyze lint``.

    ``prune_baseline`` rewrites the baseline file dropping entries
    that matched nothing this run; exits 1 when anything was pruned
    (the tree changed under the baseline — re-review), 0 on an
    idempotent re-run.
    """
    if out is None:  # bind at call time so stream capture works
        out = sys.stdout
    baseline = None
    if not no_baseline:
        source = pathlib.Path(baseline_path) if baseline_path \
            else DEFAULT_BASELINE_PATH
        if source.exists():
            baseline = Baseline.load(source)
        elif baseline_path:
            raise ConfigurationError(
                f"baseline {baseline_path!r} not found")
    # With no explicit targets, lint the installed repro package.
    targets = list(paths) if paths else \
        [pathlib.Path(__file__).resolve().parent.parent]
    report = lint_paths(targets, baseline=baseline)
    pruned = 0
    if prune_baseline and baseline is not None \
            and report.stale_baseline:
        pruned = baseline.write_pruned()
        report.stale_baseline = []
    if output_format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2),
              file=out)
    else:
        print(report.render(), file=out)
        if pruned:
            print(f"pruned {pruned} stale baseline entr"
                  f"{'y' if pruned == 1 else 'ies'} from "
                  f"{baseline.source}", file=out)
    return 0 if report.clean and not pruned else 1
