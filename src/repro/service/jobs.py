"""Job specifications: frozen, serialized submissions.

The gem5 reproducibility lesson applied to our service: a submission
is a *serialized artifact*, not an in-process call.  A
:class:`JobSpec` is canonical JSON on disk from the moment of
``repro submit``; whichever worker claims it — today, after a crash,
on another machine sharing the service directory — executes exactly
those bytes through the shared :class:`~repro.engine.ExecutionEngine`,
so results are byte-reproducible no matter who ran them.

Three kinds:

* ``run`` — a single :class:`~repro.platform.RunSpec` cell;
* ``sweep`` — an ordered list of RunSpecs executed as one fan-out;
* ``experiment`` — a registered experiment id, exported exactly like
  ``repro export`` (same engine, same files, same bytes).

Job ids are deterministic: ``j<seq>-<sha256 prefix>`` where ``seq`` is
the submission ordinal and the digest is over the jobspec's canonical
JSON — no clocks, no UUIDs, nothing host-dependent (DET-lint clean by
construction).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import ConfigurationError
from ..obs.export import canonical_json
from ..platform.spec import RunSpec

__all__ = ["JOB_KINDS", "JobSpec", "job_id_for", "load_jobspec"]

#: The accepted submission kinds.
JOB_KINDS = ("run", "sweep", "experiment")


def _field(payload: Mapping, key: str, default, kind: str):
    """``payload[key]`` (or ``default``) if it is a JSON value of
    ``kind`` — ``"integer"``, ``"boolean"`` or ``"string"``; anything
    else (a float, a bool where an integer belongs, a string where a
    bool belongs) is a ConfigurationError naming the field, never a
    coercion."""
    value = payload.get(key, default)
    types = {"integer": int, "boolean": bool, "string": str}[kind]
    if not isinstance(value, types) or \
            (kind == "integer" and isinstance(value, bool)):
        raise ConfigurationError(
            f"job spec: {key!r} must be a JSON {kind}, got {value!r}")
    return value


@dataclass(frozen=True)
class JobSpec:
    """One frozen submission: what to execute, fully self-contained."""

    #: One of :data:`JOB_KINDS`.
    kind: str
    #: The cells to run (``run``/``sweep`` kinds), in execution order.
    specs: tuple = ()
    #: Registered experiment id (``experiment`` kind).
    experiment: str = ""
    #: Fast (CI-scale) or full (paper-scale) layout for experiments.
    fast: bool = True
    #: Base seed for experiment jobs.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ConfigurationError(
                f"unknown job kind {self.kind!r}; known: {JOB_KINDS}")
        if self.kind == "experiment":
            if not self.experiment:
                raise ConfigurationError(
                    "experiment jobs need an experiment id")
            if self.specs:
                raise ConfigurationError(
                    "experiment jobs take an id, not run specs")
        else:
            if not self.specs:
                raise ConfigurationError(
                    f"{self.kind} jobs need at least one run spec")
            if self.kind == "run" and len(self.specs) != 1:
                raise ConfigurationError(
                    f"run jobs take exactly one spec "
                    f"(got {len(self.specs)}); use kind 'sweep'")
            if self.experiment:
                raise ConfigurationError(
                    f"{self.kind} jobs do not take an experiment id")
        for spec in self.specs:
            if not isinstance(spec, RunSpec):
                raise ConfigurationError(
                    f"specs must be RunSpec instances, got "
                    f"{type(spec).__name__}")

    # -- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "specs": [spec.to_dict() for spec in self.specs],
            "experiment": self.experiment,
            "fast": self.fast,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "JobSpec":
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"job spec must be a JSON object, got "
                f"{type(payload).__name__}")
        known = {"kind", "specs", "experiment", "fast", "seed"}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(f"job spec: unknown field(s) {unknown}")
        specs = payload.get("specs", ())
        if not isinstance(specs, Sequence) or isinstance(specs, (str, bytes)):
            raise ConfigurationError("job spec: 'specs' must be a list")
        return cls(
            kind=_field(payload, "kind", "", "string"),
            specs=tuple(RunSpec.from_dict(s) for s in specs),
            experiment=_field(payload, "experiment", "", "string"),
            fast=_field(payload, "fast", True, "boolean"),
            seed=_field(payload, "seed", 0, "integer"),
        )

    def canonical_json(self) -> str:
        return canonical_json(self.to_dict())

    def digest(self) -> str:
        """SHA-256 of the canonical JSON: the content half of job ids."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- constructors -------------------------------------------------

    @classmethod
    def for_experiment(cls, experiment: str, fast: bool = True,
                       seed: int = 0) -> "JobSpec":
        return cls(kind="experiment", experiment=experiment, fast=fast,
                   seed=seed)

    @classmethod
    def for_specs(cls, specs: Sequence[RunSpec]) -> "JobSpec":
        specs = tuple(specs)
        kind = "run" if len(specs) == 1 else "sweep"
        return cls(kind=kind, specs=specs)


def job_id_for(seq: int, jobspec: JobSpec) -> str:
    """The deterministic job id for submission ordinal ``seq``:
    sortable by submission order, content-checkable by digest."""
    if seq < 0:
        raise ConfigurationError("job sequence must be >= 0")
    return f"j{seq:06d}-{jobspec.digest()[:10]}"


def load_jobspec(text: str) -> JobSpec:
    """Parse a submission document.

    Accepts a full :class:`JobSpec` object (a ``kind`` key), a bare
    :class:`~repro.platform.RunSpec` (a ``platform`` key, as accepted
    by ``repro run``), or a bare list of RunSpecs (a sweep) — so any
    spec file that works one-shot also submits as a job.
    """
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise ConfigurationError(f"invalid JSON: {exc}") from exc
    if isinstance(payload, list):
        return JobSpec.for_specs([RunSpec.from_dict(p) for p in payload])
    if isinstance(payload, Mapping):
        if "kind" in payload:
            return JobSpec.from_dict(payload)
        if "platform" in payload:
            return JobSpec.for_specs([RunSpec.from_dict(payload)])
        if "experiment" in payload:
            return JobSpec.from_dict({"kind": "experiment", **payload})
    raise ConfigurationError(
        "unrecognized submission: expected a JobSpec object (a 'kind' "
        "key), a RunSpec (a 'platform' key), an {'experiment': id} "
        "object, or a list of RunSpecs")
