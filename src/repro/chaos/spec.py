"""ChaosSpec: a frozen, serializable crash schedule.

A chaos schedule is configuration, not code — the same discipline as
:class:`~repro.platform.spec.PlatformSpec` and
:class:`~repro.faults.spec.FaultSpec`.  A :class:`ChaosSpec` is
canonical JSON on disk, round-trips exactly, and fully determines the
crash schedule: each enabled crash point draws from its own Bernoulli
stream seeded by ``(seed, fnv1a("chaos/<site>"))``, so two runs with
the same spec fire the same actions at the same per-site evaluation
indices.  Adding or removing one site never perturbs another site's
draws — the variance-isolation property every other seeded subsystem
in this package maintains.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Mapping

from ..errors import ConfigurationError
from ..jsonfields import document, get, parse, read_text
from ..obs.export import canonical_json
from .hooks import CRASH_POINTS, WRITE_SITES

__all__ = ["ACTIONS", "MODES", "ChaosSpec", "SitePolicy"]

#: What a firing crash point does.
#:
#: * ``kill`` — raise :class:`~repro.errors.CrashInjected` (or
#:   ``os._exit(137)`` in ``exit`` mode): the process dies at this
#:   instruction, exactly like ``kill -9``.
#: * ``torn-write`` — truncate the in-flight write at a seeded byte
#:   offset, then die: the on-disk state a crash mid-``write(2)``
#:   leaves behind.  Only meaningful at write sites.
#: * ``io-error`` — raise ``OSError`` before the operation: the
#:   filesystem said no (EIO), the process survives to handle it.
ACTIONS = ("kill", "torn-write", "io-error")

#: How *kill* (and the crash half of *torn-write*) is delivered:
#: ``raise`` for in-process workers (the soak harness catches
#: :class:`~repro.errors.CrashInjected` and restarts), ``exit`` for
#: OS-process fleet workers (``os._exit(137)`` — no cleanup, no
#: ``finally``, the real thing).
MODES = ("raise", "exit")


@dataclass(frozen=True)
class SitePolicy:
    """Chaos policy for one named crash point."""

    #: One of :data:`~repro.chaos.hooks.CRASH_POINTS`.
    site: str
    #: One of :data:`ACTIONS`.
    action: str = "kill"
    #: Per-evaluation Bernoulli probability of firing.
    p: float = 1.0
    #: Fires before this site goes quiet (0 = unlimited — beware:
    #: unlimited *kill* can livelock a drain loop).
    max_fires: int = 1
    #: Evaluations to pass through before the site arms, letting a
    #: schedule target "the k-th passage" deterministically with p=1.
    skip: int = 0

    def __post_init__(self) -> None:
        if self.site not in CRASH_POINTS:
            raise ConfigurationError(
                f"unknown crash point {self.site!r}; "
                f"known: {list(CRASH_POINTS)}")
        if self.action not in ACTIONS:
            raise ConfigurationError(
                f"unknown chaos action {self.action!r}; "
                f"known: {list(ACTIONS)}")
        if self.action == "torn-write" and self.site not in WRITE_SITES:
            raise ConfigurationError(
                f"torn-write needs a write site; {self.site!r} is a "
                f"control-flow site (write sites: {sorted(WRITE_SITES)})")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(
                f"site {self.site}: p must be in [0, 1], got {self.p!r}")
        if self.max_fires < 0:
            raise ConfigurationError(
                f"site {self.site}: max_fires must be >= 0")
        if self.skip < 0:
            raise ConfigurationError(
                f"site {self.site}: skip must be >= 0")

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "action": self.action,
            "p": self.p,
            "max_fires": self.max_fires,
            "skip": self.skip,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SitePolicy":
        where = "site policy"
        document(payload, where, ("site", "action", "p", "max_fires", "skip"))
        return cls(
            site=get(payload, "site", "string", where, ""),
            action=get(payload, "action", "string", where, "kill"),
            p=float(get(payload, "p", "number", where, 1.0)),
            max_fires=get(payload, "max_fires", "integer", where, 1),
            skip=get(payload, "skip", "integer", where, 0),
        )


@dataclass(frozen=True)
class ChaosSpec:
    """One frozen crash schedule: seed, delivery mode, site policies."""

    #: Root seed for every per-site Bernoulli stream.
    seed: int = 0
    #: One of :data:`MODES`.
    mode: str = "raise"
    #: Policies, one per enabled crash point.
    sites: tuple = ()

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown chaos mode {self.mode!r}; known: {list(MODES)}")
        if self.seed < 0:
            raise ConfigurationError(f"seed: must be >= 0, got {self.seed}")
        seen = set()
        for policy in self.sites:
            if not isinstance(policy, SitePolicy):
                raise ConfigurationError(
                    f"sites must be SitePolicy instances, got "
                    f"{type(policy).__name__}")
            if policy.site in seen:
                raise ConfigurationError(
                    f"duplicate policy for crash point {policy.site!r}")
            seen.add(policy.site)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "mode": self.mode,
            "sites": [policy.to_dict() for policy in self.sites],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ChaosSpec":
        where = "chaos spec"
        document(payload, where, ("seed", "mode", "sites"))
        sites = get(payload, "sites", "list", where, ())
        return cls(
            seed=get(payload, "seed", "integer", where, 0),
            mode=get(payload, "mode", "string", where, "raise"),
            sites=tuple(SitePolicy.from_dict(s) for s in sites),
        )

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def with_seed(self, seed: int) -> "ChaosSpec":
        """The same schedule shape re-seeded (per-round soak streams)."""
        return replace(self, seed=seed)

    # -- constructors -------------------------------------------------

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "ChaosSpec":
        """Load a spec from a JSON file (the ``--chaos FILE`` shape)."""
        text = read_text(path, "chaos spec")
        return cls.from_dict(parse(text, f"chaos spec {path}"))

    @classmethod
    def everywhere(cls, action: str = "kill", p: float = 1.0,
                   max_fires: int = 1, seed: int = 0,
                   mode: str = "raise") -> "ChaosSpec":
        """A policy at *every* crash point that accepts ``action``
        (torn-write skips control-flow sites) — the soak default."""
        sites = tuple(
            SitePolicy(site=site, action=action, p=p, max_fires=max_fires)
            for site in CRASH_POINTS
            if action != "torn-write" or site in WRITE_SITES
        )
        return cls(seed=seed, mode=mode, sites=sites)
