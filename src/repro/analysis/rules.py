"""Determinism-sanitizer rule catalog and AST checkers.

Every invariant this repository stakes its output on — byte-identical
renders across seeds, ``--jobs`` values and cache tiers — reduces to a
short list of *source-level* disciplines: no wall clocks in simulation
code, no unseeded global RNG, no filesystem-order or set-order
iteration feeding output, no process-salted identities in keys.  Each
discipline is one :class:`LintRule` here, checked by a single AST pass
(:class:`FileChecker`) over each file.

Rules are identified by stable IDs (``DET001``..) so findings can be
suppressed individually via the checked-in baseline
(:mod:`repro.analysis.baseline`) and referenced from commit messages
and docs (see ``docs/ANALYSIS.md`` for the full catalog with
rationale and examples).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

__all__ = ["LintRule", "Finding", "RULES", "RULES_BY_ID", "FileChecker",
           "import_aliases", "qualname"]


@dataclass(frozen=True)
class LintRule:
    """One determinism discipline: stable ID, summary, and fix-it."""

    rule_id: str
    title: str
    fixit: str


RULES: tuple[LintRule, ...] = (
    LintRule(
        "DET001",
        "wall-clock call in simulation code",
        "derive timestamps from the DES engine clock, a cost-model "
        "accumulation, or Tracer.advance(); wall time may only be read "
        "by baselined measurement plumbing",
    ),
    LintRule(
        "DET002",
        "unseeded / global RNG use",
        "thread an explicit np.random.default_rng(seed) (or "
        "repro.sim.rng stream) through the call chain; never the "
        "process-global random/np.random state",
    ),
    LintRule(
        "DET003",
        "filesystem iteration in OS-dependent order",
        "wrap os.listdir/glob/iterdir results in sorted(...) before "
        "anything consumes their order",
    ),
    LintRule(
        "DET004",
        "iteration over an unordered set (or dict view in an "
        "exporter/key scope)",
        "iterate sorted(the_set) so downstream output and cache keys "
        "are independent of hash-bucket order",
    ),
    LintRule(
        "DET005",
        "mutable default argument",
        "default to None (or dataclasses.field(default_factory=...)) "
        "and allocate per call; shared defaults leak state between "
        "calls",
    ),
    LintRule(
        "DET006",
        "completion-order harvest of parallel results",
        "iterate futures in submission order (as the perf executor "
        "does); as_completed/imap_unordered order wall-clock "
        "scheduling into results, breaking float-accumulation "
        "reproducibility",
    ),
    LintRule(
        "DET007",
        "frozen dataclass field missing from its to_dict()",
        "serialize every declared field (or rename the method): a "
        "field absent from the canonical JSON silently drops out of "
        "fingerprints and cache keys",
    ),
    LintRule(
        "DET008",
        "exception class not rooted in repro.errors",
        "derive library exceptions from repro.errors.ReproError (or a "
        "subclass) so callers can catch library failures without "
        "masking programming errors",
    ),
    LintRule(
        "DET009",
        "process-salted identity (builtin hash()/id()) in library code",
        "hash() is salted per process (PYTHONHASHSEED) and id() "
        "differs every run; use hashlib/fnv1a_64 or an explicit key "
        "for anything that can reach output or a cache key",
    ),
    LintRule(
        "DET010",
        "json.dumps feeding a digest without sort_keys=True",
        "pass sort_keys=True (and fixed separators) when the dump is "
        "encoded/hashed: dict insertion order is not part of the "
        "content identity",
    ),
)

RULES_BY_ID = {rule.rule_id: rule for rule in RULES}


@dataclass(frozen=True)
class Finding:
    """One rule hit at one source location.

    The baseline key (:meth:`key`) deliberately excludes line/column so
    intentional suppressions survive unrelated edits above them.
    """

    rule_id: str
    path: str
    line: int
    col: int
    scope: str
    snippet: str
    message: str

    def key(self) -> tuple[str, str, str, str]:
        return (self.rule_id, self.path, self.scope, self.snippet)

    def render(self) -> str:
        rule = RULES_BY_ID.get(self.rule_id) or LintRule(
            self.rule_id, "unregistered rule", "register the rule")
        return (f"{self.path}:{self.line}:{self.col}: {self.rule_id} "
                f"[{self.scope}] {self.message}\n"
                f"    {self.snippet}\n"
                f"    fix: {rule.fixit}")


def import_aliases(tree: ast.AST) -> "dict[str, str]":
    """local name -> fully-qualified origin, from every import in
    ``tree`` (``import numpy as np`` maps ``np`` to ``numpy``; ``from
    os import write`` maps ``write`` to ``os.write``)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                aliases[local] = (alias.name if alias.asname
                                  else alias.name.split(".", 1)[0])
        elif isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{module}.{alias.name}"
    return aliases


def qualname(node: ast.AST, aliases: "dict[str, str]") -> str:
    """Dotted name of an expression, import aliases resolved
    (``np.random.seed`` -> ``numpy.random.seed``); "" when the
    expression is not a plain dotted name."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id, node.id)
    if isinstance(node, ast.Attribute):
        base = qualname(node.value, aliases)
        return f"{base}.{node.attr}" if base else ""
    return ""


#: Fully-qualified callables that read the host wall clock (DET001).
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.thread_time", "time.thread_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})

#: ``random`` module-level functions that mutate/read global state
#: (DET002).  Methods on an explicit Generator/Random instance never
#: resolve to these fully-qualified names, so they stay legal.
_GLOBAL_RANDOM = frozenset({
    "random." + name for name in (
        "random", "randint", "randrange", "uniform", "choice", "choices",
        "shuffle", "sample", "seed", "getrandbits", "gauss",
        "normalvariate", "expovariate", "betavariate", "triangular",
        "vonmisesvariate", "paretovariate", "weibullvariate",
        "lognormvariate", "binomialvariate", "randbytes",
    )
})

#: ``numpy.random`` attributes that are *not* the legacy global-state
#: API and therefore allowed (DET002).
_NP_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "BitGenerator", "SeedSequence",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: Module-level filesystem enumerators (DET003); method names are
#: matched separately.
_FS_CALLS = frozenset({
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
})
_FS_METHODS = frozenset({"glob", "rglob", "iterdir"})

#: Builtins whose result is independent of argument order, so feeding
#: them an unsorted enumeration is safe.
_ORDER_INSENSITIVE = frozenset({
    "sorted", "len", "sum", "max", "min", "any", "all",
    "set", "frozenset",
})
_TRANSPARENT_WRAPPERS = frozenset({"list", "tuple"})

#: Builtin exception roots that library classes must not derive from
#: directly (DET008) — the hierarchy roots in repro/errors.py instead.
_BUILTIN_EXCEPTIONS = frozenset({
    "Exception", "BaseException", "ValueError", "TypeError", "KeyError",
    "IndexError", "LookupError", "ArithmeticError", "RuntimeError",
    "OSError", "IOError", "AttributeError", "NotImplementedError",
    "StopIteration", "SystemError",
})

#: Function-name fragments marking scopes whose iteration order reaches
#: an exporter or content key (tightens DET004 to also cover dict
#: views there).
_SINK_SCOPE_FRAGMENTS = ("export", "json", "canonical", "fingerprint",
                         "to_dict", "cache_key", "render")

#: Digest sinks for DET010: a ``json.dumps`` whose result reaches one
#: of these (or ``.encode()``) must sort its keys.
_DIGEST_FRAGMENTS = ("sha256", "sha1", "sha512", "md5", "blake2",
                     "fnv1a", "hashlib")


class FileChecker(ast.NodeVisitor):
    """Single-pass checker running every rule over one parsed file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self._lines = source.splitlines()
        self.findings: list[Finding] = []
        self._scope: list[str] = []
        #: local name -> fully-qualified origin, from import statements.
        self._aliases = import_aliases(tree)
        #: child node id -> parent node, for upward context checks.
        self._parents: dict[int, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self._parents[id(child)] = node

    # -- plumbing ------------------------------------------------------

    def _emit(self, rule_id: str, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        snippet = ""
        if 1 <= line <= len(self._lines):
            snippet = self._lines[line - 1].strip()
        self.findings.append(Finding(
            rule_id=rule_id, path=self.path, line=line, col=col,
            scope=".".join(self._scope) or "<module>",
            snippet=snippet, message=message))

    def _qual(self, node: ast.AST) -> str:
        return qualname(node, self._aliases)

    def _in_sink_scope(self) -> bool:
        return any(fragment in part.lower()
                   for part in self._scope
                   for fragment in _SINK_SCOPE_FRAGMENTS)

    def _order_safe(self, node: ast.AST) -> bool:
        """Is this enumeration consumed only by an order-insensitive
        builtin (possibly through list()/tuple() or a comprehension)?"""
        cur: ast.AST = node
        for _ in range(8):
            parent = self._parents.get(id(cur))
            if parent is None:
                return False
            if isinstance(parent, ast.Call) and parent.func is not cur:
                name = self._qual(parent.func).rsplit(".", 1)[-1]
                if name in _ORDER_INSENSITIVE:
                    return True
                if name in _TRANSPARENT_WRAPPERS:
                    cur = parent
                    continue
                return False
            if isinstance(parent, (ast.comprehension, ast.GeneratorExp,
                                   ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.Starred)):
                cur = parent
                continue
            return False
        return False

    def _is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return self._qual(node.func) in ("set", "frozenset")
        return False

    def _is_dict_view(self, node: ast.AST) -> bool:
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("keys", "values", "items")
                and not node.args and not node.keywords)

    # -- scope ---------------------------------------------------------

    def _visit_scoped(self, node, name: str) -> None:
        self._scope.append(name)
        try:
            self.generic_visit(node)
        finally:
            self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_mutable_defaults(node)
        self._visit_scoped(node, node.name)

    def visit_AsyncFunctionDef(self, node) -> None:
        self._check_mutable_defaults(node)
        self._visit_scoped(node, node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_exception_root(node)
        self._check_frozen_to_dict(node)
        self._visit_scoped(node, node.name)

    def visit_For(self, node: ast.For) -> None:
        self._check_unordered_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node) -> None:
        for comp in node.generators:
            self._check_unordered_iter(comp.iter)
        self.generic_visit(node)

    visit_GeneratorExp = _visit_comprehension
    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    # -- rule bodies ---------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        q = self._qual(node.func)

        if q in _WALL_CLOCK:  # DET001
            self._emit("DET001", node,
                       f"{q}() reads the host wall clock; simulated "
                       "output must not depend on it")

        if q in _GLOBAL_RANDOM:  # DET002
            self._emit("DET002", node,
                       f"{q}() uses the process-global RNG state")
        elif q.startswith("numpy.random."):
            attr = q.split(".", 2)[2].split(".", 1)[0]
            if attr not in _NP_RANDOM_ALLOWED:
                self._emit("DET002", node,
                           f"{q}() is the legacy global-state numpy "
                           "RNG API")

        is_fs = q in _FS_CALLS or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _FS_METHODS)
        if is_fs and not self._order_safe(node):  # DET003
            label = q or node.func.attr
            self._emit("DET003", node,
                       f"{label}() enumerates the filesystem "
                       "in OS-dependent order")

        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "join" and node.args
                and self._is_set_expr(node.args[0])):  # DET004
            self._emit("DET004", node,
                       "join over a set concatenates in hash order")

        if (q == "concurrent.futures.as_completed"
                or q.endswith(".as_completed") or q == "as_completed"
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "imap_unordered")):  # DET006
            self._emit("DET006", node,
                       "results harvested in completion order vary "
                       "with host scheduling")

        if q in ("hash", "id"):  # DET009
            self._emit("DET009", node,
                       f"builtin {q}() is process-specific "
                       "(salted hash / allocation address)")

        if q == "json.dumps":  # DET010
            self._check_digest_dumps(node)

        self.generic_visit(node)

    def _check_unordered_iter(self, it: ast.AST) -> None:
        """DET004: loop/comprehension source is an unordered set — or,
        in exporter/key scopes, a dict view (whose insertion order is
        construction-path dependent)."""
        if self._is_set_expr(it):
            self._emit("DET004", it,
                       "iteration over a set visits hash order")
        elif self._is_dict_view(it) and self._in_sink_scope():
            self._emit("DET004", it,
                       f"dict .{it.func.attr}() order reaches an "
                       "exporter/content key; sort explicitly")

    def _check_mutable_defaults(self, node) -> None:
        defaults = list(node.args.defaults)
        defaults += [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if isinstance(default, ast.Call):
                mutable = self._qual(default.func) in (
                    "list", "dict", "set", "bytearray")
            if mutable:  # DET005
                self._emit("DET005", default,
                           "mutable default is shared across calls")

    def _check_exception_root(self, node: ast.ClassDef) -> None:
        if self.path.endswith("errors.py"):
            return  # the hierarchy roots live here by design
        for base in node.bases:
            name = self._qual(base).rsplit(".", 1)[-1]
            if name in _BUILTIN_EXCEPTIONS:  # DET008
                self._emit("DET008", node,
                           f"class {node.name} derives from builtin "
                           f"{name}, bypassing the repro.errors "
                           "hierarchy")

    def _check_frozen_to_dict(self, node: ast.ClassDef) -> None:
        """DET007: a frozen dataclass with a ``to_dict`` must reference
        every public field in it (as ``self.<field>`` or a string key),
        else the field is silently absent from canonical JSON."""
        if not any(self._is_frozen_dataclass(d) for d in node.decorator_list):
            return
        to_dict = next((item for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and item.name == "to_dict"), None)
        if to_dict is None:
            return
        for sub in ast.walk(to_dict):
            if isinstance(sub, ast.Call):
                name = self._qual(sub.func).rsplit(".", 1)[-1]
                if name in ("fields", "asdict", "astuple"):
                    return  # exhaustive by construction
        fields = []
        for item in node.body:
            if (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)
                    and not item.target.id.startswith("_")
                    and "ClassVar" not in ast.dump(item.annotation)):
                fields.append(item.target.id)
        referenced: set[str] = set()
        for sub in ast.walk(to_dict):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                referenced.add(sub.value)
            elif (isinstance(sub, ast.Attribute)
                  and isinstance(sub.value, ast.Name)
                  and sub.value.id == "self"):
                referenced.add(sub.attr)
        missing = sorted(set(fields) - referenced)
        if missing:
            self._emit("DET007", node,
                       f"to_dict() of frozen dataclass {node.name} "
                       f"never references field(s): {', '.join(missing)}")

    def _is_frozen_dataclass(self, decorator: ast.AST) -> bool:
        if not isinstance(decorator, ast.Call):
            return False
        if self._qual(decorator.func).rsplit(".", 1)[-1] != "dataclass":
            return False
        return any(kw.arg == "frozen"
                   and isinstance(kw.value, ast.Constant)
                   and kw.value.value is True
                   for kw in decorator.keywords)

    def _check_digest_dumps(self, node: ast.Call) -> None:
        sorts = any(kw.arg == "sort_keys"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in node.keywords)
        if sorts:
            return
        cur: ast.AST = node
        for _ in range(4):
            parent = self._parents.get(id(cur))
            if parent is None:
                return
            if (isinstance(parent, ast.Attribute)
                    and parent.attr == "encode"):
                self._emit("DET010", node,
                           "json.dumps(...).encode() without "
                           "sort_keys=True makes the digest depend on "
                           "dict insertion order")
                return
            if isinstance(parent, ast.Call) and parent.func is not cur:
                q = self._qual(parent.func).lower()
                if any(fragment in q for fragment in _DIGEST_FRAGMENTS):
                    self._emit("DET010", node,
                               "json.dumps fed to a digest without "
                               "sort_keys=True")
                    return
            cur = parent
