"""Declarative platform and run specifications.

A :class:`PlatformSpec` names the five ingredients the paper's
evaluation grid composes — machine, OS personality, Linux tuning (plus
field-level overrides), fabric, and noise switches — as *data*: plain
strings, numbers and booleans with a canonical JSON form.  A
:class:`RunSpec` adds the workload coordinates (application profile,
node count, repetition count, root seed), so one JSON document pins
down one simulation cell completely.

Nothing here is behavioural.  :func:`repro.platform.build` resolves a
spec into the concrete ``(Machine, OsInstance, FabricSpec, noise
sources)`` composite; the canonical JSON doubles as the run cache's
content address (see :func:`repro.perf.fingerprint.spec_key`), so
cache identity is auditable from a text artifact.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import json
import typing
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Callable, Mapping

from ..errors import ConfigurationError
from ..hardware.machines import Machine, a64fx_testbed, fugaku, oakforest_pacs
from ..jsonfields import check, document, get, parse
from ..kernel.tuning import (
    LinuxTuning,
    fugaku_production,
    ofp_default,
    untuned,
)

#: Machine id -> factory (the paper's three environments, Table 1/§6.3).
MACHINES: dict[str, Callable[[], Machine]] = {
    "oakforest-pacs": oakforest_pacs,
    "fugaku": fugaku,
    "a64fx-testbed": a64fx_testbed,
}

#: Tuning preset id -> factory (§4's three Linux deployments).
TUNINGS: dict[str, Callable[[], LinuxTuning]] = {
    "fugaku-production": fugaku_production,
    "ofp-default": ofp_default,
    "untuned": untuned,
}

OS_KINDS = ("linux", "mckernel")

#: Machine fields a spec may override (hypothetical-machine support).
MACHINE_OVERRIDE_FIELDS: dict[str, type] = {
    "name": str,
    "n_nodes": int,
    "interconnect": str,
}


#: Scalar field type -> the JSON kind an override value must be.
_KIND = {bool: "boolean", float: "number", int: "integer", str: "string"}

@functools.cache
def _tuning_field_types() -> Mapping[str, type]:
    """:class:`LinuxTuning`'s field types, resolved once: every
    ``RunSpec`` decode consults them."""
    return MappingProxyType(typing.get_type_hints(LinuxTuning))


def _encode_value(value: Any) -> Any:
    """Lower one override value to a JSON-native type."""
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigurationError(
        f"cannot encode override value {value!r} "
        f"({type(value).__qualname__}) as JSON"
    )


def _decode_value(field_name: str, expected: type, value: Any) -> Any:
    """Lift one JSON value back to the dataclass field's type."""
    if isinstance(expected, type) and issubclass(expected, enum.Enum):
        try:
            return expected(value)
        except ValueError:
            raise ConfigurationError(
                f"{field_name}: {value!r} is not a valid "
                f"{expected.__qualname__} "
                f"(one of {sorted(m.value for m in expected)})"
            ) from None
    value = check(value, _KIND[expected], "platform spec", field_name)
    return float(value) if expected is float else value


@dataclass(frozen=True)
class NoiseSwitches:
    """Catalogue-level noise switches of one platform.

    ``include_stragglers`` controls the rare node-level service events:
    on for at-scale tail experiments (Fig. 4), off for the 16-node
    testbed characterisation (Table 2 / Fig. 3) where, at ~1 event per
    50 node-hours, they would only distort a seeded short run.
    """

    include_stragglers: bool = True

    def to_dict(self) -> dict:
        return {"include_stragglers": self.include_stragglers}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "NoiseSwitches":
        where = "platform spec"
        document(payload, where, ("include_stragglers",), name="noise")
        return cls(include_stragglers=get(
            payload, "include_stragglers", "boolean", where, True,
            prefix="noise."))


@dataclass(frozen=True)
class McKernelSwitches:
    """IHK/McKernel deployment knobs (§5.1's boot parameters)."""

    #: Fraction of node memory reserved for the LWK partition.
    memory_fraction: float = 0.9
    #: Tofu PicoDriver RDMA fast path (§5.1).
    picodriver: bool = True

    def __post_init__(self) -> None:
        if not 0.0 < self.memory_fraction < 1.0:
            raise ConfigurationError(
                f"mckernel.memory_fraction: must be in (0, 1), "
                f"got {self.memory_fraction!r}"
            )

    def to_dict(self) -> dict:
        return {
            "memory_fraction": self.memory_fraction,
            "picodriver": self.picodriver,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "McKernelSwitches":
        where = "platform spec"
        document(payload, where, ("memory_fraction", "picodriver"),
                 name="mckernel")
        return cls(
            memory_fraction=float(get(payload, "memory_fraction", "number",
                                      where, 0.9, prefix="mckernel.")),
            picodriver=get(payload, "picodriver", "boolean", where, True,
                           prefix="mckernel."),
        )


_PLATFORM_FIELDS = (
    "name", "machine", "os_kind", "tuning",
    "tuning_overrides", "machine_overrides", "noise", "mckernel",
)


@dataclass(frozen=True)
class PlatformSpec:
    """One point of the (machine, OS, tuning, fabric, noise) grid.

    Everything is data: the machine and tuning are registry ids, the
    overrides are JSON-native ``{field: value}`` maps (enum fields
    carried by their string values), and the noise/McKernel switches
    are small nested records.  Validation happens at construction; the
    canonical JSON (:meth:`canonical_json`) is byte-stable and feeds
    the run cache's content address.
    """

    name: str
    machine: str
    os_kind: str = "linux"
    #: Tuning preset id; for McKernel platforms this is the *host*
    #: Linux tuning (whose TLB-flush mode still matters, §4.2.2).
    tuning: str = "fugaku-production"
    #: Field-level overrides applied over the tuning preset.
    tuning_overrides: Mapping[str, Any] = field(default_factory=dict)
    #: Overrides applied over the machine factory (hypothetical
    #: machines: scaled node counts, renamed systems, other fabrics).
    machine_overrides: Mapping[str, Any] = field(default_factory=dict)
    noise: NoiseSwitches = field(default_factory=NoiseSwitches)
    mckernel: McKernelSwitches = field(default_factory=McKernelSwitches)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigurationError(
                f"name: must be a non-empty string, got {self.name!r}")
        if self.machine not in MACHINES:
            raise ConfigurationError(
                f"machine: unknown machine {self.machine!r} "
                f"(known: {sorted(MACHINES)})")
        if self.os_kind not in OS_KINDS:
            raise ConfigurationError(
                f"os_kind: must be one of {OS_KINDS}, got {self.os_kind!r}")
        if self.tuning not in TUNINGS:
            raise ConfigurationError(
                f"tuning: unknown tuning preset {self.tuning!r} "
                f"(known: {sorted(TUNINGS)})")
        object.__setattr__(self, "tuning_overrides",
                           dict(self.tuning_overrides))
        object.__setattr__(self, "machine_overrides",
                           dict(self.machine_overrides))
        # Decoding validates every override (and names bad fields).
        self._decoded_tuning_overrides()
        self._decoded_machine_overrides()

    # -- resolution ------------------------------------------------------

    def _decoded_tuning_overrides(self) -> dict[str, Any]:
        types = _tuning_field_types()
        out: dict[str, Any] = {}
        for key, value in self.tuning_overrides.items():
            if key not in types:
                raise ConfigurationError(
                    f"tuning_overrides.{key}: LinuxTuning has no such "
                    f"field (known: {sorted(types)})")
            out[key] = _decode_value(
                f"tuning_overrides.{key}", types[key], value)
        return out

    def _decoded_machine_overrides(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for key, value in self.machine_overrides.items():
            if key not in MACHINE_OVERRIDE_FIELDS:
                raise ConfigurationError(
                    f"machine_overrides.{key}: not an overridable "
                    f"Machine field "
                    f"(known: {sorted(MACHINE_OVERRIDE_FIELDS)})")
            out[key] = _decode_value(
                f"machine_overrides.{key}",
                MACHINE_OVERRIDE_FIELDS[key], value)
        return out

    def resolved_machine(self) -> Machine:
        """The concrete :class:`Machine`, overrides applied."""
        machine = MACHINES[self.machine]()
        overrides = self._decoded_machine_overrides()
        return replace(machine, **overrides) if overrides else machine

    def resolved_tuning(self) -> LinuxTuning:
        """The concrete :class:`LinuxTuning`, overrides applied.

        For McKernel platforms this is the host Linux tuning.
        """
        tuning = TUNINGS[self.tuning]()
        overrides = self._decoded_tuning_overrides()
        return replace(tuning, **overrides) if overrides else tuning

    # -- derivation ------------------------------------------------------

    def with_os(self, os_kind: str) -> "PlatformSpec":
        """This platform under the other kernel personality."""
        if os_kind == self.os_kind:
            return self
        return replace(self, os_kind=os_kind,
                       name=f"{self.name}/{os_kind}")

    def with_tuning(self, tuning: LinuxTuning) -> "PlatformSpec":
        """This platform with a concrete tuning, expressed as overrides.

        The tuning is diffed against the spec's preset so the result
        stays fully declarative (the Table 2 / Fig. 3 countermeasure
        sweeps become derived specs).
        """
        base = TUNINGS[self.tuning]()
        overrides = {
            f.name: _encode_value(getattr(tuning, f.name))
            for f in dataclasses.fields(LinuxTuning)
            if getattr(tuning, f.name) != getattr(base, f.name)
        }
        return replace(self, tuning_overrides=overrides,
                       name=f"{self.name}[{tuning.name}]")

    def with_machine(self, **overrides: Any) -> "PlatformSpec":
        """This platform on a modified (possibly hypothetical) machine."""
        merged = {**self.machine_overrides,
                  **{k: _encode_value(v) for k, v in overrides.items()}}
        return replace(self, machine_overrides=merged)

    def with_noise(self, **switches: bool) -> "PlatformSpec":
        return replace(self, noise=replace(self.noise, **switches))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Complete JSON-able form (defaults included, so the canonical
        serialization is independent of how the spec was built)."""
        return {
            "name": self.name,
            "machine": self.machine,
            "os_kind": self.os_kind,
            "tuning": self.tuning,
            "tuning_overrides": dict(self.tuning_overrides),
            "machine_overrides": dict(self.machine_overrides),
            "noise": self.noise.to_dict(),
            "mckernel": self.mckernel.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PlatformSpec":
        where = "platform spec"
        document(payload, where, _PLATFORM_FIELDS)
        return cls(
            name=get(payload, "name", "string", where),
            machine=get(payload, "machine", "string", where),
            os_kind=get(payload, "os_kind", "string", where, "linux"),
            tuning=get(payload, "tuning", "string", where,
                       "fugaku-production"),
            tuning_overrides=get(payload, "tuning_overrides", "object",
                                 where, {}),
            machine_overrides=get(payload, "machine_overrides", "object",
                                  where, {}),
            noise=NoiseSwitches.from_dict(payload.get("noise", {})),
            mckernel=McKernelSwitches.from_dict(
                payload.get("mckernel", {})),
        )

    def to_json(self, indent: int | None = None) -> str:
        """JSON form; ``indent=None`` gives the canonical byte-stable
        serialization (sorted keys, no whitespace)."""
        if indent is None:
            return self.canonical_json()
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "PlatformSpec":
        return cls.from_dict(parse(text, "platform spec"))

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


_RUN_FIELDS = ("platform", "app", "n_nodes", "n_runs", "seed")


@dataclass(frozen=True)
class RunSpec:
    """One simulation cell: a platform plus workload coordinates.

    The canonical JSON of a RunSpec is the complete, auditable identity
    of one :class:`~repro.runtime.runner.RunResult`; its SHA-256 is the
    run cache key (see :func:`repro.perf.fingerprint.spec_key`).
    """

    platform: PlatformSpec
    app: str
    n_nodes: int
    n_runs: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        from ..apps import ALL_PROFILES

        if self.app not in ALL_PROFILES:
            raise ConfigurationError(
                f"app: unknown application {self.app!r} "
                f"(known: {sorted(ALL_PROFILES)})")
        for field_name in ("n_nodes", "n_runs"):
            value = check(getattr(self, field_name), "integer", "run spec",
                          field_name)
            if value <= 0:
                raise ConfigurationError(
                    f"{field_name}: must be positive, got {value}")
        if check(self.seed, "integer", "run spec", "seed") < 0:
            raise ConfigurationError(f"seed: must be >= 0, got {self.seed}")

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "platform": self.platform.to_dict(),
            "app": self.app,
            "n_nodes": self.n_nodes,
            "n_runs": self.n_runs,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunSpec":
        where = "run spec"
        document(payload, where, _RUN_FIELDS)
        return cls(
            platform=PlatformSpec.from_dict(
                get(payload, "platform", "object", where)),
            app=get(payload, "app", "string", where),
            n_nodes=get(payload, "n_nodes", "integer", where),
            n_runs=payload.get("n_runs", 3),
            seed=payload.get("seed", 0),
        )

    def to_json(self, indent: int | None = None) -> str:
        if indent is None:
            return self.canonical_json()
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(parse(text, "run spec"))

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def fingerprint(self) -> str:
        """The run cache key: SHA-256 over the canonical JSON (plus
        schema and package version — see :mod:`repro.perf.fingerprint`)."""
        from ..perf.fingerprint import spec_key

        return spec_key(self)


def load_spec(text: str) -> "PlatformSpec | RunSpec":
    """Parse a JSON document as a RunSpec (if it has a ``platform``
    key) or a PlatformSpec."""
    payload = parse(text, "spec")
    if isinstance(payload, Mapping) and "platform" in payload:
        return RunSpec.from_dict(payload)
    return PlatformSpec.from_dict(payload)
