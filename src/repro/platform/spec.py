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
from ..faults.spec import FaultSpec
from ..hardware.machines import Machine, a64fx_testbed, fugaku, oakforest_pacs
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


def _type_error(field_name: str, expected: str, value: Any) -> ConfigurationError:
    return ConfigurationError(
        f"{field_name}: expected {expected}, got {value!r}"
    )


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
    if expected is bool:
        if not isinstance(value, bool):
            raise _type_error(field_name, "bool", value)
        return value
    if expected is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise _type_error(field_name, "number", value)
        return float(value)
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise _type_error(field_name, "int", value)
        return value
    if expected is str:
        if not isinstance(value, str):
            raise _type_error(field_name, "str", value)
        return value
    raise _type_error(field_name, expected.__name__, value)


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
        unknown = sorted(set(payload) - {"include_stragglers"})
        if unknown:
            raise ConfigurationError(
                f"noise: unknown field(s) {unknown}"
            )
        value = payload.get("include_stragglers", True)
        return cls(include_stragglers=_decode_value(
            "noise.include_stragglers", bool, value))


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
        known = {"memory_fraction", "picodriver"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"mckernel: unknown field(s) {unknown}"
            )
        return cls(
            memory_fraction=_decode_value(
                "mckernel.memory_fraction", float,
                payload.get("memory_fraction", 0.9)),
            picodriver=_decode_value(
                "mckernel.picodriver", bool,
                payload.get("picodriver", True)),
        )


_PLATFORM_FIELDS = (
    "name", "machine", "os_kind", "tuning",
    "tuning_overrides", "machine_overrides", "noise", "mckernel",
    "faults",
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
    #: Optional fault scenario (see :mod:`repro.faults`).  The default
    #: null scenario injects nothing and is *omitted* from the
    #: canonical JSON, so fault support changes no pre-existing
    #: fingerprint, cache key or golden output.
    faults: FaultSpec = field(default_factory=FaultSpec)

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

    def with_faults(self, faults: FaultSpec | None = None,
                    **overrides: Any) -> "PlatformSpec":
        """This platform inside a fault scenario.

        Pass a complete :class:`FaultSpec`, or field overrides applied
        on top of the spec's current scenario::

            spec.with_faults(node_mtbf_hours=100_000, max_retries=3)
        """
        if faults is not None and overrides:
            raise ConfigurationError(
                "with_faults takes a FaultSpec or field overrides, "
                "not both")
        if faults is None:
            faults = replace(self.faults, **overrides)
        return replace(self, faults=faults)

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Complete JSON-able form (defaults included, so the canonical
        serialization is independent of how the spec was built).

        The one exception is ``faults``: the default null scenario is
        omitted entirely, keeping every fault-free spec's canonical
        JSON — and therefore its fingerprint and run-cache key —
        byte-identical to the pre-fault-support serialization.
        """
        payload = {
            "name": self.name,
            "machine": self.machine,
            "os_kind": self.os_kind,
            "tuning": self.tuning,
            "tuning_overrides": dict(self.tuning_overrides),
            "machine_overrides": dict(self.machine_overrides),
            "noise": self.noise.to_dict(),
            "mckernel": self.mckernel.to_dict(),
        }
        if self.faults != FaultSpec.none():
            payload["faults"] = self.faults.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "PlatformSpec":
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"platform spec must be a JSON object, got "
                f"{type(payload).__name__}")
        unknown = sorted(set(payload) - set(_PLATFORM_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"unknown platform spec field(s) {unknown} "
                f"(known: {sorted(_PLATFORM_FIELDS)})")
        for required in ("name", "machine"):
            if required not in payload:
                raise ConfigurationError(
                    f"{required}: required field missing")
        return cls(
            name=payload["name"],
            machine=payload["machine"],
            os_kind=payload.get("os_kind", "linux"),
            tuning=payload.get("tuning", "fugaku-production"),
            tuning_overrides=payload.get("tuning_overrides", {}),
            machine_overrides=payload.get("machine_overrides", {}),
            noise=NoiseSwitches.from_dict(payload.get("noise", {})),
            mckernel=McKernelSwitches.from_dict(
                payload.get("mckernel", {})),
            faults=FaultSpec.from_dict(payload.get("faults", {})),
        )

    def to_json(self, indent: int | None = None) -> str:
        """JSON form; ``indent=None`` gives the canonical byte-stable
        serialization (sorted keys, no whitespace)."""
        if indent is None:
            return self.canonical_json()
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "PlatformSpec":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"invalid JSON: {exc}") from None
        return cls.from_dict(payload)

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
            value = getattr(self, field_name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise _type_error(field_name, "int", value)
            if value <= 0:
                raise ConfigurationError(
                    f"{field_name}: must be positive, got {value}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise _type_error("seed", "int", self.seed)

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
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"run spec must be a JSON object, got "
                f"{type(payload).__name__}")
        unknown = sorted(set(payload) - set(_RUN_FIELDS))
        if unknown:
            raise ConfigurationError(
                f"unknown run spec field(s) {unknown} "
                f"(known: {sorted(_RUN_FIELDS)})")
        for required in ("platform", "app", "n_nodes"):
            if required not in payload:
                raise ConfigurationError(
                    f"{required}: required field missing")
        return cls(
            platform=PlatformSpec.from_dict(payload["platform"]),
            app=payload["app"],
            n_nodes=payload["n_nodes"],
            n_runs=payload.get("n_runs", 3),
            seed=payload.get("seed", 0),
        )

    def to_json(self, indent: int | None = None) -> str:
        if indent is None:
            return self.canonical_json()
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"invalid JSON: {exc}") from None
        return cls.from_dict(payload)

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
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ConfigurationError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ConfigurationError("spec must be a JSON object")
    if "platform" in payload:
        return RunSpec.from_dict(payload)
    return PlatformSpec.from_dict(payload)
