"""repro.service — the simulation-as-a-service layer.

The ROADMAP north star made concrete: instead of one-shot CLI
invocations, experiments and sweeps are *submitted* to a persistent
queue and executed by a crash-tolerant worker fleet — the
Balsam-style launcher/site split, scaled down to a directory and a
JSONL journal.  Everything still executes through the one shared
:class:`~repro.engine.ExecutionEngine`, so a job's artifacts are
byte-identical to the serial ``repro experiment``/``repro export``
path for any worker count, before and after worker crashes.

Layers (bottom up):

* :mod:`~repro.service.journal` — append-only JSONL, the single
  source of truth;
* :mod:`~repro.service.jobs` — frozen, serialized submissions;
* :mod:`~repro.service.queue` — the folded job table, atomic claims,
  clock-free leases, retry/fail transitions;
* :mod:`~repro.service.worker` — claim → execute → publish, heartbeat
  and lease-reaping;
* :mod:`~repro.service.fleet` — ``repro serve`` for one worker or an
  OS-process fleet;
* :mod:`~repro.service.fsck` — invariant verification and safe repair
  (``repro service verify [--repair]``), including telemetry-spool
  healing and quarantine.

Fleet telemetry rides on top: ``repro serve --telemetry`` gives every
worker a durable :class:`~repro.obs.spool.TelemetrySpool`, and
:class:`~repro.obs.fleet.FleetAggregator` folds journal + spools into
the health console (``repro service top``) and the deterministic
fleet report (``repro service report [--check]``).

CLI verbs: ``repro submit``, ``repro serve``, ``repro status
[--json]``, ``repro fetch``, ``repro service verify``, ``repro
service top``, ``repro service report``.  See ``docs/SERVICE.md``
for queue states, lease semantics and a crash-recovery walkthrough,
and ``docs/CHAOS.md`` for the crash-point catalogue this layer is
soak-tested against.
"""

from __future__ import annotations

from .. import _lazy_exports

#: Where each re-export lives.  The read verbs (``status``, ``service
#: verify``, ``service report``) never touch ``worker``/``fleet``, so
#: they never load the engine those run jobs through.
_EXPORTS = {
    "serve": ".fleet",
    **dict.fromkeys(("ServiceFsck", "verify_service"), ".fsck"),
    **dict.fromkeys(("JOB_KINDS", "JobSpec", "job_id_for", "load_jobspec"),
                    ".jobs"),
    "Journal": ".journal",
    **dict.fromkeys(("JobQueue", "JobState", "JobView",
                     "default_service_dir"), ".queue"),
    "Worker": ".worker",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = sorted(_EXPORTS)
