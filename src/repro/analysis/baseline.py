"""Checked-in suppression baseline for the determinism sanitizer.

The merged tree must lint clean (``repro analyze lint src/repro``
exits 0), yet a handful of hits are *intentional* — e.g. the perf
counters' wall-clock timer measures host execution by design.  Those
live in ``analysis/baseline.json`` next to this module, each with a
one-line justification, and are reported as suppressed rather than
failing the gate.

Baseline entries match on ``(rule, path, scope, snippet)`` — never on
line numbers — so edits elsewhere in a file don't invalidate them,
while any change to the offending line itself surfaces the finding
again for re-review.  Entries that no longer match anything are
reported as stale so the baseline can only shrink, not rot.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

from ..errors import ConfigurationError
from .rules import RULES_BY_ID, Finding

__all__ = ["BaselineEntry", "Baseline", "DEFAULT_BASELINE_PATH"]

#: The packaged baseline covering src/repro itself.
DEFAULT_BASELINE_PATH = pathlib.Path(__file__).with_name("baseline.json")

_REQUIRED = ("rule", "path", "scope", "snippet", "justification")


@dataclass(frozen=True)
class BaselineEntry:
    """One intentional, justified rule hit."""

    rule: str
    path: str
    scope: str
    snippet: str
    justification: str

    def key(self) -> tuple[str, str, str, str]:
        return (self.rule, self.path, self.scope, self.snippet)


class Baseline:
    """A set of suppressions plus bookkeeping of which ones matched."""

    def __init__(self, entries: list[BaselineEntry],
                 source: str = "<memory>",
                 extra: dict | None = None) -> None:
        self.source = source
        self.entries = list(entries)
        #: Non-``entries`` payload keys (e.g. a ``comment``), preserved
        #: verbatim when the file is rewritten by ``--prune-baseline``.
        self.extra = dict(extra or {})
        self._by_key = {}
        for entry in self.entries:
            if entry.key() in self._by_key:
                raise ConfigurationError(
                    f"baseline {source}: duplicate entry for "
                    f"{entry.key()!r}")
            self._by_key[entry.key()] = entry
        self._used: set[tuple[str, str, str, str]] = set()

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "Baseline":
        path = pathlib.Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigurationError(f"cannot read baseline {path}: {exc}")
        except ValueError as exc:
            raise ConfigurationError(f"baseline {path}: invalid JSON: {exc}")
        if not isinstance(payload, dict) or "entries" not in payload:
            raise ConfigurationError(
                f"baseline {path}: expected an object with 'entries'")
        entries = []
        for i, raw in enumerate(payload["entries"]):
            missing = [k for k in _REQUIRED if k not in raw]
            if missing:
                raise ConfigurationError(
                    f"baseline {path}: entry {i} missing {missing}")
            if raw["rule"] not in RULES_BY_ID:
                raise ConfigurationError(
                    f"baseline {path}: entry {i} names unknown rule "
                    f"{raw['rule']!r}")
            entries.append(BaselineEntry(
                rule=raw["rule"], path=raw["path"], scope=raw["scope"],
                snippet=raw["snippet"],
                justification=raw["justification"]))
        extra = {k: v for k, v in payload.items() if k != "entries"}
        return cls(entries, source=str(path), extra=extra)

    def suppresses(self, finding: Finding) -> bool:
        entry = self._by_key.get(finding.key())
        if entry is None:
            return False
        self._used.add(entry.key())
        return True

    def stale_entries(self) -> list[BaselineEntry]:
        """Entries that matched no finding this run (candidates for
        removal — the offending code was fixed or moved)."""
        return [e for e in self.entries if e.key() not in self._used]

    def write_pruned(self, path: "str | pathlib.Path | None" = None
                     ) -> int:
        """Rewrite the baseline file keeping only entries that matched
        a finding this run; returns the number of entries dropped.
        Non-entry payload keys are preserved verbatim.  Only meaningful
        after a lint run has exercised :meth:`suppresses`."""
        target = pathlib.Path(path) if path is not None \
            else pathlib.Path(self.source)
        stale = {e.key() for e in self.stale_entries()}
        keep = [e for e in self.entries if e.key() not in stale]
        payload = dict(self.extra)
        payload["entries"] = [
            {"rule": e.rule, "path": e.path, "scope": e.scope,
             "snippet": e.snippet, "justification": e.justification}
            for e in keep]
        target.write_text(
            json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
            encoding="utf-8")
        return len(stale)
