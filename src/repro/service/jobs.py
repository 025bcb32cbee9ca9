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
JSON — no clocks, no UUIDs, nothing host-dependent.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import ConfigurationError
from ..jsonfields import document, get, parse
from ..obs.export import canonical_json
from ..platform.spec import RunSpec

__all__ = ["JOB_ID", "JOB_KINDS", "JobSpec", "job_id_for", "load_jobspec"]

#: The accepted submission kinds.
JOB_KINDS = ("run", "sweep", "experiment")

_JOB_FIELDS = ("kind", "specs", "experiment", "fast", "seed")


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
        if self.seed < 0:
            raise ConfigurationError(f"seed: must be >= 0, got {self.seed}")
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
        where = "job spec"
        document(payload, where, _JOB_FIELDS)
        specs = get(payload, "specs", "list", where, ())
        return cls(
            kind=get(payload, "kind", "string", where, ""),
            specs=tuple(RunSpec.from_dict(s) for s in specs),
            experiment=get(payload, "experiment", "string", where, ""),
            fast=get(payload, "fast", "boolean", where, True),
            seed=get(payload, "seed", "integer", where, 0),
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


#: Every id :func:`job_id_for` can return: the submission ordinal (six
#: digits or more) and ten hex digits of the spec digest.  Nothing
#: else names a job; the journal fold refuses any other id, since ids
#: become file names under ``jobs/``, ``claims/`` and ``results/``.
JOB_ID = re.compile(r"j[0-9]{6,}-[0-9a-f]{10}")


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
    payload = parse(text, "job spec")
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
