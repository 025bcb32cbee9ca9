"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A machine, kernel, or experiment configuration is inconsistent."""


class ResourceError(ReproError):
    """A hardware resource request cannot be satisfied.

    Raised e.g. when IHK tries to reserve more cores than the node has, or
    when the buddy allocator runs out of physical memory.
    """


class OutOfMemoryError(ResourceError):
    """Physical memory exhausted (buddy allocator or cgroup limit)."""


class CgroupLimitExceeded(OutOfMemoryError):
    """A memory cgroup charge would exceed the cgroup's limit."""


class PartitionError(ResourceError):
    """Invalid CPU/memory partitioning request (overlap, unknown core...)."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class SyscallError(ReproError):
    """A simulated system call failed.

    Carries a POSIX-style ``errno`` name so tests can assert on the exact
    failure mode (e.g. ``ENOMEM``, ``ENOSYS``).
    """

    def __init__(self, errno_name: str, message: str = "") -> None:
        self.errno_name = errno_name
        super().__init__(f"{errno_name}: {message}" if message else errno_name)


class FaultError(ReproError):
    """Base class for injected faults (see :mod:`repro.faults`).

    Raised when a seeded :class:`~repro.faults.FaultInjector` fires a
    fault that the simulated component turns into a hard failure —
    never raised unless fault injection is explicitly enabled.
    """


class NodeFailure(FaultError):
    """A compute node died mid-run (exponential per-node MTBF model).

    Carries ``node`` (the failed node index within the job) and ``at``
    (the simulation time of the failure) when known.
    """

    def __init__(self, message: str = "", node: int | None = None,
                 at: float | None = None) -> None:
        self.node = node
        self.at = at
        super().__init__(message or "node failure")


class ProxyCrashed(FaultError):
    """The Linux-side proxy process of a McKernel job crashed.

    The LWK process loses every delegated-state item the proxy held
    (fd table, file positions); the batch scheduler retries the job.
    """


class JobRetriesExhausted(FaultError):
    """A batch job failed more times than its retry policy allows."""


class CacheCorruptionError(ReproError):
    """A run-cache disk entry is unreadable or structurally invalid.

    The cache never raises this on the hot path — corrupt entries are
    quarantined and treated as misses — but :meth:`RunCache.verify`
    uses it to classify entries in its report.
    """


class ServiceError(ReproError):
    """Base class for job-service failures (see :mod:`repro.service`)."""


class JobNotFoundError(ServiceError):
    """A job id names no submission recorded in the service journal."""


class ClaimConflict(ServiceError):
    """A worker's lease on a job no longer exists or belongs to
    another worker.

    Raised when a heartbeat or completion finds the claim file gone or
    re-owned — the job's lease expired and another worker re-claimed
    it.  The losing worker must discard its attempt without publishing.
    """


class JournalCorruptionError(ServiceError):
    """A non-final journal line is unparseable.

    A truncated *final* line (a crash mid-append) is tolerated and
    skipped; corruption anywhere earlier means the journal can no
    longer be trusted as the queue's source of truth.
    """


class CrashInjected(BaseException):
    """A :mod:`repro.chaos` crash point fired with the *kill* action.

    Deliberately **not** a :class:`ReproError`: a simulated crash must
    behave like ``kill -9`` — it must never be absorbed by the
    ``except ReproError`` job-failure paths (which would turn a crash
    into a polite retry and hide exactly the recovery gaps chaos
    testing exists to find).  Like :class:`KeyboardInterrupt`, it roots
    in :class:`BaseException` so only code that explicitly expects a
    crash (the soak harness, worker crash handling) catches it.

    Never raised unless a chaos injector is explicitly installed.
    """

    def __init__(self, site: str, message: str = "") -> None:
        self.site = site
        super().__init__(message or f"chaos: injected crash at {site}")
