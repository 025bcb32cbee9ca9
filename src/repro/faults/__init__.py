"""repro.faults — deterministic cluster-scale fault injection.

The happy-path simulator answers "how fast is each kernel?"; this
package answers the production question the paper's §6 lessons-learned
hinge on: "how often does a job *finish*, and how much machine is lost
to failures, restarts and checkpoints?"  Everything is seeded and
declarative:

* :class:`FaultSpec` — a failure environment as data (per-node MTBF,
  OOM/proxy-crash/daemon-stall rates, IKC drop probability) plus the
  tolerance policy (bounded retries, exponential backoff, periodic
  checkpointing).  JSON-round-trippable, and handed straight to the
  batch scheduler rather than carried by a platform spec.
* :class:`FaultInjector` — samples :class:`FaultEvent` schedules from
  named RNG streams; same seed + same spec ⇒ identical schedule on any
  process.
* :class:`RetryPolicy` / :class:`CheckpointPolicy` — the reaction
  arithmetic consumed by
  :class:`~repro.runtime.batchsched.BatchScheduler`.

Quickstart::

    from repro.faults import FaultSpec, FaultInjector
    faults = FaultSpec(node_mtbf_hours=100_000, max_retries=3,
                       checkpoint_interval=1800, checkpoint_cost=60)
    injector = FaultInjector(faults)
    injector.schedule(n_nodes=8192, window=7200, stream="job/lqcd/a0")
"""

from .injector import (
    KINDS_BY_OS,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
)
from .spec import FaultSpec
from .tolerance import CheckpointPolicy, RetryPolicy

__all__ = [
    "CheckpointPolicy",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "FaultSpec",
    "KINDS_BY_OS",
    "RetryPolicy",
]
