"""Content fingerprints: the run cache's key for one simulation cell.

The run cache is *content-addressed* by :func:`spec_key`: every cell
carries a declarative :class:`~repro.platform.spec.RunSpec` and is
keyed by the SHA-256 of the spec's canonical JSON, so cache identity
is auditable from a text artifact.  Any change to any spec field (a
tuning override, a noise switch, a seed) or to the package version
produces a different key, so stale entries can never be returned;
they are simply never looked up again.
"""

from __future__ import annotations

import hashlib

#: Bump when the RunResult serialization or the key layout changes;
#: part of every digest, so old on-disk entries become unreachable.
#: v2: spec-addressed keys — cells carrying a ``RunSpec`` are keyed by
#: the SHA-256 of the canonical RunSpec JSON (:func:`spec_key`), and
#: disk entries store that JSON alongside the result, so cache
#: identity is auditable from a text artifact instead of a recursive
#: object walk.
#: v3: the run path honours ``noise.include_stragglers`` (entries keyed
#: under v2 for straggler-free specs hold results sampled with them).
SCHEMA_VERSION = 3


def spec_key(spec) -> str:
    """The content address of one :class:`~repro.platform.spec.RunSpec`.

    SHA-256 over the schema version, the package version and the
    spec's canonical JSON — the one cache-key path: any spec field
    (machine override, tuning override, noise switch, seed, …) is
    legible in the JSON that produced the digest, so a cache entry's
    identity can be audited from a text artifact.
    """
    from .. import __version__

    payload = (f"schema:{SCHEMA_VERSION}|version:{__version__}|"
               f"{spec.canonical_json()}")
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
