"""Memoized run cache: content-addressed storage of RunResults.

Two tiers under one interface:

* **memory** — a plain dict, always on; repeated sweeps within one
  process (e.g. ``run_all`` regenerating figures that share cells) hit
  it for free;
* **disk** — one JSON file per key under the cache directory, written
  atomically (:func:`~repro.durable.atomic_publish`), so repeated
  *invocations* of the benchmark/figure harness skip resimulation
  entirely.

The cache directory resolves to ``$REPRO_CACHE_DIR`` when set, else
``~/.cache/repro-runs``.  JSON float serialization uses ``repr``
round-tripping, so a cached replay reconstructs every wall time and
breakdown component bit-for-bit — rendered figure text is unchanged.

Disk entries written from spec-driven sweeps embed the canonical
:class:`~repro.platform.spec.RunSpec` JSON whose SHA-256 is the file
name, so every entry is self-describing: ``{"spec": {...}, "result":
{...}}`` — cache identity is auditable with a text editor.

Corruption containment: a disk entry that fails to parse or decode
(truncated write, bit rot, hand edit) is **quarantined** — moved to a
``quarantine/`` subdirectory for post-mortem — and reported as a miss,
so one bad file can never kill a sweep.  ``repro cache verify`` walks
the whole disk tier applying the same check.
"""

from __future__ import annotations

import json
import logging
import os
import pathlib
import time
from typing import TYPE_CHECKING, Optional

from ..durable import atomic_publish, quarantine
from ..errors import CacheCorruptionError, ConfigurationError

logger = logging.getLogger(__name__)

#: Subdirectory (inside the cache dir) where corrupt entries land.
QUARANTINE_DIR = "quarantine"

if TYPE_CHECKING:
    from ..runtime.runner import RunResult


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-runs``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-runs"


def result_to_dict(result: "RunResult") -> dict:
    """JSON-able representation of a RunResult (exact round trip)."""
    b = result.breakdown
    return {
        "app": result.app,
        "machine": result.machine,
        "os_kind": result.os_kind,
        "n_nodes": result.n_nodes,
        "n_threads": result.n_threads,
        "times": list(result.times),
        "breakdown": {
            "compute": b.compute,
            "tlb": b.tlb,
            "churn": b.churn,
            "collective": b.collective,
            "noise": b.noise,
            "init": b.init,
        },
    }


def result_from_dict(payload: dict) -> "RunResult":
    from ..runtime.runner import Breakdown, RunResult

    return RunResult(
        app=payload["app"],
        machine=payload["machine"],
        os_kind=payload["os_kind"],
        n_nodes=int(payload["n_nodes"]),
        n_threads=int(payload["n_threads"]),
        times=tuple(float(t) for t in payload["times"]),
        breakdown=Breakdown(**{
            k: float(v) for k, v in payload["breakdown"].items()
        }),
    )


class RunCache:
    """In-memory + optional on-disk store of RunResults by content key.

    ``directory=None`` keeps the cache purely in memory (one process);
    a path enables the persistent tier.  Use :meth:`default` for the
    standard location honouring ``$REPRO_CACHE_DIR``.

    ``durable=False`` skips the fsync before the atomic publish —
    an escape hatch for throwaway test caches.
    """

    def __init__(self, directory: str | os.PathLike | None = None,
                 durable: bool = True) -> None:
        self._memory: dict[str, "RunResult"] = {}
        #: Corrupt disk entries moved aside by this instance.
        self.quarantined = 0
        self.durable = durable
        self.directory: Optional[pathlib.Path] = (
            pathlib.Path(directory) if directory is not None else None
        )
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    @classmethod
    def default(cls) -> "RunCache":
        """Persistent cache at the standard location."""
        return cls(default_cache_dir())

    # -- access -------------------------------------------------------

    def _path(self, key: str) -> pathlib.Path:
        assert self.directory is not None
        if not key or any(c in key for c in "/\\."):
            raise ConfigurationError(f"malformed cache key {key!r}")
        return self.directory / f"{key}.json"

    def _quarantine(self, path: pathlib.Path, reason: str) -> None:
        """Move a corrupt entry aside (never delete: post-mortems need
        the bytes) and log a warning.  Best-effort: a failed move must
        not turn a cache miss into a sweep failure."""
        assert self.directory is not None
        try:
            target = quarantine(path, self.directory / QUARANTINE_DIR)
        except OSError:
            logger.warning("run cache: could not quarantine corrupt "
                           "entry %s (%s)", path.name, reason)
            return
        self.quarantined += 1
        logger.warning("run cache: quarantined corrupt entry %s -> %s "
                       "(%s)", path.name, target, reason)

    @staticmethod
    def _decode_entry(payload) -> "RunResult":
        """Entry JSON -> RunResult; :class:`CacheCorruptionError` on any
        structural problem (shared by :meth:`get` and :meth:`verify`)."""
        if not isinstance(payload, dict):
            raise CacheCorruptionError(
                f"entry is {type(payload).__name__}, expected object")
        try:
            return result_from_dict(payload.get("result", payload))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CacheCorruptionError(
                f"undecodable result payload: {exc}") from exc

    def get(self, key: str) -> Optional["RunResult"]:
        """The cached result for ``key``, or None on a miss.

        A present-but-corrupt disk entry (``json.JSONDecodeError``,
        missing/ill-typed fields, truncated file) is quarantined and
        reported as a miss — the sweep recomputes and overwrites."""
        result = self._memory.get(key)
        if result is not None:
            return result
        if self.directory is None:
            return None
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            # Missing or unreadable: a plain miss.
            return None
        try:
            payload = json.loads(text)
            result = self._decode_entry(payload)
        except ValueError as exc:  # JSONDecodeError is a ValueError
            self._quarantine(path, f"invalid JSON: {exc}")
            return None
        except CacheCorruptionError as exc:
            self._quarantine(path, str(exc))
            return None
        self._memory[key] = result
        return result

    def put(self, key: str, result: "RunResult", spec=None) -> None:
        """Store a result; ``spec`` (a RunSpec) makes the disk entry
        self-describing — the JSON that hashed to ``key`` is written
        next to the result, so cache identity is auditable with a text
        editor."""
        self._memory[key] = result
        if self.directory is None:
            return
        path = self._path(key)
        entry = {"result": result_to_dict(result)}
        if spec is not None:
            entry["spec"] = spec.to_dict()
        # Storage payload, not a digest input: the entry's identity is
        # its file name (the spec hash), so key order here is free.
        payload = json.dumps(entry)
        # A crash mid-write (chaos or real) leaves only a stray
        # ``*.tmp`` — never a corrupt ``*.json`` — and an I/O error is
        # a silent skip: the cache degrades, correctness is unaffected.
        atomic_publish(path, payload.encode("utf-8"), site="cache.put",
                       durable=self.durable)

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        """Distinct entries reachable from this cache instance."""
        keys = set(self._memory)
        if self.directory is not None:
            keys.update(p.stem for p in sorted(self.directory.glob("*.json")))
        return len(keys)

    # -- maintenance --------------------------------------------------

    def clear(self) -> int:
        """Drop every entry (memory and disk); returns entries removed."""
        removed = len(self)
        self._memory.clear()
        if self.directory is not None:
            for path in sorted(self.directory.glob("*.json")):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed

    def verify(self) -> dict:
        """Walk the disk tier, quarantine every corrupt entry, and
        report: ``{"checked", "ok", "quarantined": [filenames]}``.

        Safe to run concurrently with sweeps — entries are only ever
        moved into ``quarantine/``, never deleted or rewritten.
        """
        report: dict = {"checked": 0, "ok": 0, "quarantined": []}
        if self.directory is None:
            return report
        for path in sorted(self.directory.glob("*.json")):
            report["checked"] += 1
            try:
                payload = json.loads(path.read_text())
                self._decode_entry(payload)
            except (OSError, ValueError, CacheCorruptionError) as exc:
                self._quarantine(path, str(exc))
                report["quarantined"].append(path.name)
            else:
                report["ok"] += 1
        return report

    def gc(self, max_age_days: Optional[float] = None,
           max_bytes: Optional[int] = None) -> dict:
        """Prune disk-tier entries by age and/or total size.

        ``max_age_days`` removes entries older than the cutoff (by
        mtime); ``max_bytes`` then removes oldest-first until the tier
        fits the budget.  At least one bound is required.  Returns
        ``{"checked", "removed", "kept", "reclaimed_bytes"}``.

        Quarantined entries are *never* touched: ``quarantine/`` holds
        corruption evidence for post-mortems, and reclaiming it would
        destroy exactly the bytes someone needs to inspect.  Pruned
        keys are dropped from the memory tier too, so a gc'd entry is
        a true miss afterwards.
        """
        if max_age_days is None and max_bytes is None:
            raise ConfigurationError(
                "cache gc needs a bound: max_age_days and/or max_bytes")
        if max_age_days is not None and max_age_days < 0:
            raise ConfigurationError("max_age_days must be >= 0")
        if max_bytes is not None and max_bytes < 0:
            raise ConfigurationError("max_bytes must be >= 0")
        report = {"checked": 0, "removed": 0, "kept": 0,
                  "reclaimed_bytes": 0}
        if self.directory is None:
            return report
        entries = []  # (mtime, path, size) — oldest first after sort
        for path in sorted(self.directory.glob("*.json")):
            try:
                st = path.stat()
            except OSError:
                continue
            entries.append((st.st_mtime, str(path), st.st_size))
        entries.sort()
        report["checked"] = len(entries)
        doomed = []
        survivors = []
        if max_age_days is not None:
            # Entry ages are measured against the host clock: gc is an
            # operator command, not a simulation path.
            cutoff = time.time() - max_age_days * 86400.0
            for entry in entries:
                (doomed if entry[0] < cutoff else survivors).append(entry)
        else:
            survivors = entries
        if max_bytes is not None:
            total = sum(size for _, _, size in survivors)
            while survivors and total > max_bytes:
                oldest = survivors.pop(0)
                doomed.append(oldest)
                total -= oldest[2]
        for _, pathname, size in doomed:
            path = pathlib.Path(pathname)
            try:
                path.unlink()
            except OSError:
                continue
            self._memory.pop(path.stem, None)
            report["removed"] += 1
            report["reclaimed_bytes"] += size
        report["kept"] = report["checked"] - report["removed"]
        return report

    def info(self) -> dict:
        """Cache location and population summary."""
        on_disk = (
            sorted(p.stem for p in self.directory.glob("*.json"))
            if self.directory is not None else []
        )
        in_quarantine = (
            len(list((self.directory / QUARANTINE_DIR).glob("*.json*")))
            if self.directory is not None
            and (self.directory / QUARANTINE_DIR).is_dir() else 0
        )
        return {
            "directory": str(self.directory) if self.directory else None,
            "memory_entries": len(self._memory),
            "disk_entries": len(on_disk),
            "quarantined_entries": in_quarantine,
        }
