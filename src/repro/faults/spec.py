"""Declarative fault scenarios: :class:`FaultSpec`.

The paper's production story (§4, §6) is inseparable from failure:
Fugaku's 158,976 nodes make component failures, OOM kills and stuck
daemons routine, and §6's lessons-learned attribute McKernel's limited
production adoption largely to reliability at that scale.  A
:class:`FaultSpec` names a failure environment as *data* — per-node
MTBF, cgroup OOM-kill rate, IKC drop probability, proxy-crash and
daemon-stall rates — plus the tolerance policy that reacts to it
(bounded retries with exponential backoff, optional periodic
checkpointing).

Like every other spec in this package family it is frozen, validated
at construction, and JSON-round-trippable.  It is not part of a
:class:`~repro.platform.spec.PlatformSpec`: the one model that reacts
to faults, :class:`~repro.runtime.batchsched.BatchScheduler`, takes
it directly, so a fault scenario never enters a run-cache key.

Rates are expressed per node-hour so that failure exposure scales with
job size × walltime, the way real cluster reliability budgets are
written: a per-node MTBF of 100,000 h gives an aggregate failure rate
of ``n_nodes / 100000`` per hour, which is negligible on a 16-node
testbed and dominant on a full pre-exascale machine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

from ..errors import ConfigurationError
from ..jsonfields import check, document, parse

#: The number fields (each >= 0) and the integer fields, with their
#: dotted names in a platform spec.
_NUMBER_FIELDS = tuple((name, f"faults.{name}") for name in (
    "node_mtbf_hours", "oom_per_node_hour", "proxy_crash_per_node_hour",
    "daemon_stall_per_node_hour", "daemon_stall_seconds", "backoff_base",
    "checkpoint_interval", "checkpoint_cost", "ikc_timeout",
    "ikc_drop_prob", "backoff_factor"))
_INTEGER_FIELDS = tuple((name, f"faults.{name}") for name in (
    "ikc_max_redeliveries", "max_retries", "seed"))
_FIELDS = tuple(name for name, _ in _NUMBER_FIELDS + _INTEGER_FIELDS)


@dataclass(frozen=True)
class FaultSpec:
    """One failure environment plus its tolerance policy.

    The default instance (== :meth:`none`) injects nothing: every rate
    and probability is zero, so all behaviour is byte-identical to a
    simulator without fault support.
    """

    # -- fault sources ------------------------------------------------
    #: Per-node mean time between failures, hours; 0 disables node
    #: failures.  Aggregate job failure rate is ``n_nodes / mtbf``.
    node_mtbf_hours: float = 0.0
    #: Cgroup OOM kills per node-hour (the §4.1.3 memcg limit firing).
    oom_per_node_hour: float = 0.0
    #: Proxy-process crashes per node-hour (McKernel jobs only: the
    #: Linux-side twin dies and takes the delegated state with it).
    proxy_crash_per_node_hour: float = 0.0
    #: System-daemon stalls per node-hour (Linux jobs only: McKernel's
    #: LWK runs no daemons, §2).  Non-fatal; each stall adds
    #: ``daemon_stall_seconds`` to the job's walltime.
    daemon_stall_per_node_hour: float = 0.0
    #: Walltime added per daemon stall, seconds.
    daemon_stall_seconds: float = 30.0
    #: Probability an IKC message is dropped in flight (per delivery).
    #: No model component reads the three ``ikc_*`` fields; they stay
    #: because the ``faults`` artefact exports every field.
    ikc_drop_prob: float = 0.0
    #: Re-delivery wait after a detected IKC drop, seconds.
    ikc_timeout: float = 5e-5
    #: Re-delivery attempts before an IKC send times out for good.
    ikc_max_redeliveries: int = 3

    # -- tolerance policy ---------------------------------------------
    #: Restart attempts after a fatal fault before a job is FAILED.
    max_retries: int = 3
    #: First retry backoff, seconds.
    backoff_base: float = 30.0
    #: Multiplier applied per additional retry (exponential backoff).
    backoff_factor: float = 2.0
    #: Checkpoint period in payload seconds; 0 disables checkpointing
    #: (a failed attempt then loses all its progress).
    checkpoint_interval: float = 0.0
    #: Walltime cost of writing one checkpoint, seconds.
    checkpoint_cost: float = 0.0
    #: Root seed of the fault streams (independent of the run seed so
    #: A/B comparisons can hold the fault schedule fixed).
    seed: int = 0

    def __post_init__(self) -> None:
        for name, dotted in _NUMBER_FIELDS:
            value = float(check(getattr(self, name), "number",
                                "fault spec", dotted))
            if value < 0:
                raise ConfigurationError(
                    f"{dotted}: must be >= 0, got {value!r}")
            object.__setattr__(self, name, value)
        for name, dotted in _INTEGER_FIELDS:
            value = check(getattr(self, name), "integer", "fault spec",
                          dotted)
            if value < 0:
                raise ConfigurationError(
                    f"{dotted}: must be >= 0, got {value!r}")
        if not 0.0 <= self.ikc_drop_prob < 1.0:
            raise ConfigurationError(
                f"faults.ikc_drop_prob: must be in [0, 1), "
                f"got {self.ikc_drop_prob!r}")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"faults.backoff_factor: must be >= 1, "
                f"got {self.backoff_factor!r}")

    # -- classification ----------------------------------------------

    @classmethod
    def none(cls) -> "FaultSpec":
        """The null scenario: no fault source active (the default)."""
        return cls()

    @property
    def active(self) -> bool:
        """True when at least one fault source can actually fire."""
        return (
            self.node_mtbf_hours > 0.0
            or self.oom_per_node_hour > 0.0
            or self.proxy_crash_per_node_hour > 0.0
            or self.daemon_stall_per_node_hour > 0.0
            or self.ikc_drop_prob > 0.0
        )

    # -- derivation ----------------------------------------------------

    def with_(self, **overrides: Any) -> "FaultSpec":
        """A copy with ``overrides`` applied (validated on construction)."""
        return replace(self, **overrides)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultSpec":
        document(payload, "fault spec", _FIELDS, name="faults")
        return cls(**payload)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent,
                          separators=None if indent else (",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultSpec":
        return cls.from_dict(parse(text, "fault spec"))
