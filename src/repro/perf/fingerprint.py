"""Content fingerprints: stable digests of run configurations.

The run cache is *content-addressed*.  The primary path is
:func:`spec_key`: cells constructed from a declarative
:class:`~repro.platform.spec.RunSpec` are keyed by the SHA-256 of the
spec's canonical JSON, so cache identity is auditable from a text
artifact.  Cells built from raw objects fall back to :func:`run_key`,
a canonical serialization of everything a :meth:`AppRunner.run`
outcome depends on — machine, workload profile, OS personality (node
spec, tuning, cost model, feature switches), node count, repetition
count and root seed.  Either way, any change to any component (a
tuning flag, a cost-model price, a profile field, the package version)
produces a different key, so stale entries can never be returned; they
are simply never looked up again.

Canonicalization walks dataclasses, enums, containers and NumPy
scalars/arrays recursively.  Objects whose ``repr`` is not
deterministic across processes (the default ``object.__repr__``) are
rejected loudly rather than silently hashed by address.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import TYPE_CHECKING, Any

import numpy as np

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from ..apps.base import WorkloadProfile
    from ..hardware.machines import Machine
    from ..kernel.base import OsInstance

#: Bump when the RunResult serialization or the key layout changes;
#: part of every digest, so old on-disk entries become unreachable.
#: v2: spec-addressed keys — cells carrying a ``RunSpec`` are keyed by
#: the SHA-256 of the canonical RunSpec JSON (:func:`spec_key`), and
#: disk entries store that JSON alongside the result, so cache
#: identity is auditable from a text artifact instead of a recursive
#: object walk.
SCHEMA_VERSION = 2


def _canon(obj: Any, out: list[str]) -> None:
    """Append canonical tokens for ``obj`` to ``out``."""
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        out.append(f"{type(obj).__name__}:{obj!r}")
    elif isinstance(obj, float):
        # repr() round-trips doubles exactly (shortest representation).
        out.append(f"float:{obj!r}")
    elif isinstance(obj, enum.Enum):
        out.append(f"enum:{type(obj).__qualname__}.{obj.name}")
    elif isinstance(obj, np.ndarray):
        out.append(f"ndarray:{obj.dtype!s}:{obj.shape!r}:"
                   f"{hashlib.sha256(np.ascontiguousarray(obj)).hexdigest()}")
    elif isinstance(obj, (np.integer, np.floating)):
        _canon(obj.item(), out)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out.append(f"dc:{type(obj).__qualname__}{{")
        for f in dataclasses.fields(obj):
            out.append(f"{f.name}=")
            _canon(getattr(obj, f.name), out)
        out.append("}")
    elif isinstance(obj, dict):
        out.append("dict{")
        for key in sorted(obj, key=repr):
            _canon(key, out)
            out.append("->")
            _canon(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append(f"{type(obj).__name__}[")
        for item in obj:
            _canon(item, out)
        out.append("]")
    elif isinstance(obj, (set, frozenset)):
        out.append("set{")
        for item in sorted(obj, key=repr):
            _canon(item, out)
        out.append("}")
    elif hasattr(obj, "__dict__") and not callable(obj):
        # Plain value objects (CpuTopology, NumaLayout, ...): the class
        # plus every attribute, canonicalized recursively — never the
        # (address-bearing) default repr.
        out.append(f"obj:{type(obj).__qualname__}{{")
        for name in sorted(vars(obj)):
            out.append(f"{name}=")
            _canon(vars(obj)[name], out)
        out.append("}")
    else:
        raise ConfigurationError(
            f"cannot fingerprint {type(obj).__qualname__!r}: no "
            f"deterministic canonical form (add one to perf.fingerprint)"
        )


def fingerprint(obj: Any) -> str:
    """Hex SHA-256 of the canonical serialization of ``obj``."""
    out: list[str] = []
    _canon(obj, out)
    return hashlib.sha256("\x1f".join(out).encode("utf-8")).hexdigest()


def spec_key(spec) -> str:
    """The content address of one :class:`~repro.platform.spec.RunSpec`.

    SHA-256 over the schema version, the package version and the
    spec's canonical JSON — the primary cache-key path: any spec field
    (machine override, tuning override, noise switch, seed, …) is
    legible in the JSON that produced the digest, so a cache entry's
    identity can be audited from a text artifact.
    """
    from .. import __version__

    payload = (f"schema:{SCHEMA_VERSION}|version:{__version__}|"
               f"{spec.canonical_json()}")
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def os_signature(os_instance: "OsInstance") -> dict:
    """The cache-relevant identity of a booted OS personality.

    OS instances are stateful composites (allocator pools, cgroups),
    so instead of hashing the whole object graph the signature extracts
    exactly what :meth:`AppRunner.run` consumes: kind, node design,
    cost model, tuning, and the McKernel feature switches.
    """
    sig: dict[str, Any] = {
        "kind": os_instance.kind,
        "node": os_instance.node,
        "costs": os_instance.costs,
    }
    for attr in ("tuning", "host_tuning"):
        value = getattr(os_instance, attr, None)
        if value is not None:
            sig[attr] = value
    picodriver = getattr(os_instance, "picodriver_enabled", None)
    if picodriver is not None:
        sig["picodriver"] = picodriver
    partition = getattr(os_instance, "partition", None)
    if partition is not None:
        sig["partition_cpus"] = partition.cpus
        sig["partition_memory"] = partition.total_memory()
    return sig


def run_key(
    machine: "Machine",
    profile: "WorkloadProfile",
    os_instance: "OsInstance",
    n_nodes: int,
    n_runs: int,
    seed: int,
    memo: dict | None = None,
) -> str:
    """The content address of one (machine, profile, OS, n_nodes,
    n_runs, seed) simulation cell.

    ``memo`` (an id-keyed dict scoped to one sweep, where the component
    objects are guaranteed alive) amortizes the machine/profile/OS
    digests across the hundreds of cells that share them.
    """
    from .. import __version__

    def part(tag: str, key_obj: Any, make: Any = None) -> str:
        if memo is None:
            return fingerprint(make() if make is not None else key_obj)
        k = (tag, id(key_obj))
        if k not in memo:
            memo[k] = fingerprint(make() if make is not None else key_obj)
        return memo[k]

    head = (f"schema:{SCHEMA_VERSION}|version:{__version__}"
            f"|n_nodes:{int(n_nodes)}|n_runs:{int(n_runs)}|seed:{int(seed)}")
    body = (part("machine", machine), part("profile", profile),
            part("os", os_instance, lambda: os_signature(os_instance)))
    return hashlib.sha256("|".join((head,) + body).encode()).hexdigest()
