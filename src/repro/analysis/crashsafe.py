"""Crash-consistency analyzer: the CC-rule family.

Crash safety holds by construction in one module, :mod:`repro.durable`,
which owns every durability idiom the service relies on (``O_APPEND``
single-write logs, ``O_EXCL`` creates, tmp→fsync→``os.replace``
publication, the in-place lease bump).  The rules here only check what
no unit test of that module would catch — code that goes around it —
with a plain AST pass over each file:

``CC001``
    no raw durability syscall (the set :data:`repro.durable.SYSCALLS`
    declares: opens, writes, truncates, fsyncs, renames, temp files)
    outside ``repro/durable.py``; the chaos injector's ``os.write`` in
    ``repro/chaos/hooks.py`` is the one other allowed call.
``CC007``
    no bare-``except`` / ``except Exception`` / ``except
    BaseException`` frame enclosing a crash point may absorb
    :class:`~repro.errors.CrashInjected` (or silently eat an injected
    io-error) unless it re-raises or names ``CrashInjected``
    explicitly.  Calls into the :mod:`repro.durable` writers that take
    a crash site count as crash points wherever they are made.

The chaos catalogue itself is checked at run time instead: an
injector refuses an unregistered site, and the tests drive every
registered crash point (see ``docs/CHAOS.md``).  So is journal fold
coverage: every record type the package journals must be a key of
:data:`repro.service.journal.FOLD` (``tests/test_service_fold.py``).

CLI: ``repro analyze crash [paths...]`` — canonical-JSON report with
``--json``, shared suppression-baseline mechanism
(``analysis/crash_baseline.json``), exit 0 clean / 1 findings / 2
usage error.  See ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..durable import SYSCALLS
from ..errors import ConfigurationError
from .baseline import Baseline
from .linter import LintReport, canonical_path, iter_python_files
from .rules import (Finding, LintRule, import_aliases, qualname,
                    register_rules)

__all__ = [
    "CC_RULES",
    "CrashReport",
    "DEFAULT_CRASH_BASELINE_PATH",
    "collect_scan",
    "crash_findings",
    "crash_report",
    "run_crash",
]

CC_RULES: tuple[LintRule, ...] = (
    LintRule(
        "CC001",
        "raw durability syscall outside repro/durable.py",
        "call the repro.durable primitive for the idiom (AppendLog, "
        "exclusive_create, atomic_publish, atomic_rename, "
        "rewrite_in_place, quarantine); a new idiom belongs in "
        "durable.py with its own tests",
    ),
    LintRule(
        "CC007",
        "broad exception handler can absorb an injected crash",
        "catch the narrowest type (a ReproError subclass / OSError), "
        "name CrashInjected explicitly when the handler must see "
        "crashes, or re-raise with a bare 'raise'; a swallowing "
        "'except Exception' also hides injected io-errors",
    ),
)

register_rules(CC_RULES)

#: The packaged crash-consistency baseline covering src/repro itself.
DEFAULT_CRASH_BASELINE_PATH = pathlib.Path(__file__).with_name(
    "crash_baseline.json")

#: Canonical path -> the durability syscalls it may issue (CC001).
_SYSCALL_OWNERS: dict[str, frozenset] = {
    "repro/durable.py": SYSCALLS,
    # ChaosInjector.write performs the (possibly torn) write itself.
    "repro/chaos/hooks.py": frozenset({"os.write"}),
}

#: Method attr -> receiver-name hints marking calls that reach a crash
#: point in another module (CC007's "crash-point frame" test when the
#: hook itself is out of view).
_DURABLE_CALLS: dict[str, tuple[str, ...]] = {
    "append": ("journal", "log"),
    "put": ("cache",),
    "submit": ("queue",),
    "claim_next": ("queue",),
    "heartbeat": ("queue",),
    "complete": ("queue",),
    "break_lease": ("queue",),
    "mark_running": ("queue",),
    "fail_attempt": ("queue",),
    "requeue": ("queue",),
    "run_specs": ("engine",),
    "export_experiments": ("engine",),
    "emit": ("spool", "telemetry"),
    "event": ("spool", "telemetry"),
    "segment": ("spool", "telemetry"),
}

#: repro.durable functions that write through a caller-named crash
#: point (CC007 crash-point frames; AppendLog.append is matched by the
#: ``append`` receiver hints above).
_DURABLE_SITE_FUNCS = frozenset({"atomic_publish", "rewrite_in_place"})

_BROAD_HANDLERS = frozenset({"Exception", "BaseException"})


@dataclass
class ScanData:
    """Everything one pass over a tree collects."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0


# -- per-file analysis -------------------------------------------------


class _FileScan:
    """One file's crash-consistency pass (CC001, CC007)."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.tree = tree
        self._lines = source.splitlines()
        self.findings: list[Finding] = []
        self._aliases = import_aliases(tree)
        self._allowed = _SYSCALL_OWNERS.get(path, frozenset())
        #: function name -> its body directly evaluates a chaos hook
        #: (for CC007's one-level same-file transitive test).
        self._direct_chaos: dict[str, bool] = {}

    # -- plumbing ------------------------------------------------------

    def _qual(self, node: ast.AST) -> str:
        return qualname(node, self._aliases)

    def _raw(self, node: ast.AST) -> str:
        """Dotted receiver text without alias resolution (``self.queue``
        stays ``self.queue``)."""
        return qualname(node, {})

    def _snippet(self, node: ast.AST) -> str:
        line = getattr(node, "lineno", 1)
        if 1 <= line <= len(self._lines):
            return self._lines[line - 1].strip()
        return ""

    def _emit(self, rule_id: str, node: ast.AST, scope: str,
              message: str) -> None:
        self.findings.append(Finding(
            rule_id=rule_id, path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            scope=scope, snippet=self._snippet(node), message=message))

    # -- traversal -----------------------------------------------------

    def run(self) -> None:
        functions = self._functions(self.tree)
        for func, scope in functions:
            self._direct_chaos[func.name] = bool(
                self._chaos_calls(func, self._chaos_vars(func)))
        for func, scope in functions:
            self._check_handlers(func, scope)
        self._check_containment()

    def _functions(self, tree: ast.Module
                   ) -> "list[tuple[ast.AST, str]]":
        out: list[tuple[ast.AST, str]] = []

        def walk(node: ast.AST, scope: "list[str]") -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    name = scope + [child.name]
                    out.append((child, ".".join(name)))
                    walk(child, name)
                elif isinstance(child, ast.ClassDef):
                    walk(child, scope + [child.name])
                else:
                    walk(child, scope)

        walk(tree, [])
        return out

    def _own_statements(self, func: ast.AST) -> "list[ast.stmt]":
        """Every statement of ``func`` excluding nested def bodies."""
        out: list[ast.stmt] = []

        def walk(node: ast.AST) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    continue
                if isinstance(child, ast.stmt):
                    out.append(child)
                walk(child)

        walk(func)
        return out

    def _own_calls(self, func: ast.AST) -> "list[ast.Call]":
        # _own_statements lists nested statements too, so dedupe: a
        # call inside `if` inside `try` is reachable from three stmts.
        # AST nodes are identity-hashable, so they key the set directly.
        seen: "set[ast.AST]" = set()
        out: list[ast.Call] = []
        for stmt in self._own_statements(func):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and node not in seen:
                    seen.add(node)
                    out.append(node)
        return out

    def _chaos_vars(self, func: ast.AST) -> "set[str]":
        """Locals bound to ``get_chaos()``, also through a conditional
        expression (``cz = get_chaos() if site else None``)."""
        names: set[str] = set()
        for stmt in self._own_statements(func):
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(node, ast.Call)
                    and self._qual(node.func).endswith("get_chaos")
                    for node in ast.walk(stmt.value)):
                names.update(t.id for t in stmt.targets
                             if isinstance(t, ast.Name))
        return names

    def _is_durable_site_call(self, fn: ast.AST) -> bool:
        """A call into :mod:`repro.durable` that writes through a crash
        point, however it was imported."""
        module, _, name = self._qual(fn).rpartition(".")
        return name in _DURABLE_SITE_FUNCS and \
            module.rsplit(".", 1)[-1] == "durable"

    @staticmethod
    def _is_chaos_call(node: ast.AST, chaos_vars: "set[str]") -> bool:
        """``cz.on(...)`` / ``cz.write(...)`` on a get_chaos() local."""
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in chaos_vars
                and node.func.attr in ("on", "write"))

    def _chaos_calls(self, func: ast.AST,
                     chaos_vars: "set[str]") -> "list[ast.Call]":
        return [c for c in self._own_calls(func)
                if self._is_chaos_call(c, chaos_vars)]

    # -- CC001 ---------------------------------------------------------

    def _check_containment(self) -> None:
        # Innermost def wins: nested defs come after their parents.
        scopes = {node: scope
                  for func, scope in self._functions(self.tree)
                  for node in ast.walk(func)}
        for node in ast.walk(self.tree):
            if not isinstance(node, ast.Call):
                continue
            name = self._qual(node.func)
            if name in SYSCALLS and name not in self._allowed:
                self._emit("CC001", node,
                           scopes.get(node, "<module>"),
                           f"{name}() outside repro/durable.py: crash "
                           "safety is only reviewed and tested there")

    # -- CC007 ---------------------------------------------------------

    def _check_handlers(self, func: ast.AST, scope: str) -> None:
        chaos_vars = self._chaos_vars(func)
        for stmt in self._own_statements(func):
            if not isinstance(stmt, ast.Try):
                continue
            region = stmt.body + stmt.orelse
            if not self._region_reaches_crash_point(region, chaos_vars):
                continue
            for handler in stmt.handlers:
                broad = self._broad_handler(handler)
                if broad is None:
                    continue
                if "CrashInjected" in self._handler_types(handler):
                    continue
                if any(isinstance(n, ast.Raise) and n.exc is None
                       for body in handler.body
                       for n in ast.walk(body)):
                    continue
                self._emit(
                    "CC007", handler, scope,
                    f"{broad} handler encloses a crash-point frame: it "
                    "absorbs CrashInjected (bare/BaseException) or "
                    "eats an injected io-error without attribution")

    def _region_reaches_crash_point(self, region: "list[ast.stmt]",
                                    chaos_vars: "set[str]") -> bool:
        for stmt in region:
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                if self._is_chaos_call(node, chaos_vars):
                    return True
                fn = node.func
                if self._is_durable_site_call(fn):
                    return True
                if isinstance(fn, ast.Attribute):
                    hints = _DURABLE_CALLS.get(fn.attr)
                    if hints is not None:
                        recv = self._raw(fn.value).lower()
                        if any(h in recv for h in hints):
                            return True
                    # same-file method call one level deep
                    if self._direct_chaos.get(fn.attr):
                        return True
                elif isinstance(fn, ast.Name) and \
                        self._direct_chaos.get(fn.id):
                    return True
        return False

    def _handler_types(self, handler: ast.ExceptHandler) -> "list[str]":
        if handler.type is None:
            return []
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
            else [handler.type]
        return [self._qual(t).rsplit(".", 1)[-1] for t in types]

    def _broad_handler(self, handler: ast.ExceptHandler
                       ) -> Optional[str]:
        if handler.type is None:
            return "bare 'except:'"
        broad = sorted(set(self._handler_types(handler))
                       & _BROAD_HANDLERS)
        if broad:
            return f"'except {broad[0]}'"
        return None


# -- driver ------------------------------------------------------------


def collect_scan(paths: Sequence["str | pathlib.Path"]) -> ScanData:
    """Run the per-file pass over every ``.py`` under ``paths``."""
    data = ScanData()
    for path in iter_python_files(paths):
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise ConfigurationError(f"{path}: not parseable: {exc}")
        scan = _FileScan(canonical_path(path), source, tree)
        scan.run()
        data.files_checked += 1
        data.findings.extend(scan.findings)
    return data


def crash_findings(paths: Sequence["str | pathlib.Path"],
                   only_rules: Optional[Sequence[str]] = None
                   ) -> "tuple[list[Finding], int]":
    """All CC findings over ``paths``; returns ``(findings,
    files_checked)``.  ``only_rules`` restricts to a rule subset (the
    per-rule fixtures use this)."""
    data = collect_scan(paths)
    findings = list(data.findings)
    if only_rules is not None:
        wanted = set(only_rules)
        findings = [f for f in findings if f.rule_id in wanted]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id,
                                 f.message))
    return findings, data.files_checked


@dataclass
class CrashReport(LintReport):
    """A lint report plus the crash analyzer's notes."""

    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        lines = [super().render()]
        lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        payload = super().to_dict()
        payload["notes"] = list(self.notes)
        return payload


def crash_report(paths: Sequence["str | pathlib.Path"],
                 baseline: Optional[Baseline] = None) -> CrashReport:
    """The full analyzer run: findings minus the baseline."""
    report = CrashReport()
    findings, report.files_checked = crash_findings(paths)
    for finding in findings:
        if baseline is not None and baseline.suppresses(finding):
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)
    if baseline is not None:
        report.stale_baseline = baseline.stale_entries()
    return report


def run_crash(paths: Optional[Sequence[str]] = None,
              baseline_path: Optional[str] = None,
              no_baseline: bool = False,
              output_format: str = "text",
              prune_baseline: bool = False,
              out=None) -> int:
    """Shared body of ``repro analyze crash``.

    Exit codes: 0 clean, 1 unsuppressed findings (or baseline entries
    pruned), 2 usage error (argparse).  The JSON report is canonical —
    sorted keys, fixed separators — so CI can byte-compare it.
    """
    from ..obs.export import canonical_json
    from .linter import default_lint_paths

    if out is None:  # bind at call time so stream capture works
        out = sys.stdout
    baseline = None
    if not no_baseline:
        source = pathlib.Path(baseline_path) if baseline_path \
            else DEFAULT_CRASH_BASELINE_PATH
        if source.exists():
            baseline = Baseline.load(source)
        elif baseline_path:
            raise ConfigurationError(
                f"baseline {baseline_path!r} not found")
    targets = list(paths) if paths else default_lint_paths()
    report = crash_report(targets, baseline=baseline)
    pruned = 0
    if prune_baseline and baseline is not None \
            and report.stale_baseline:
        pruned = baseline.write_pruned()
        report.notes.append(
            f"pruned {pruned} stale baseline entr"
            f"{'y' if pruned == 1 else 'ies'} from {baseline.source}")
    if output_format == "json":
        print(canonical_json(report.to_dict()), file=out)
    else:
        print(report.render(), file=out)
    return 0 if report.clean and not pruned else 1
