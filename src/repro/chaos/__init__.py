"""Deterministic crash injection for the job service.

``repro.chaos`` turns the service's crash-tolerance story from prose
into a test surface: named crash points threaded through the journal,
queue, worker and cache mark every instruction window where a real
``kill -9`` would leave observable on-disk state, and a frozen,
seedable :class:`ChaosSpec` decides — reproducibly — which of them
fire, with what action (*kill*, *torn-write*, *io-error*).

The package has three layers:

* :mod:`repro.chaos.spec` — the frozen, JSON-round-trippable schedule.
* :mod:`repro.chaos.hooks` — the crash-point catalogue and the ambient
  :class:`ChaosInjector` (zero overhead when off, mirroring the tracer
  hooks).
* :mod:`repro.chaos.soak` — the crash/restart/fsck loop that drives a
  worker fleet through a seeded crash schedule and asserts the service
  converges to byte-identical artifacts.
"""

from .hooks import (CRASH_POINTS, KILL_EXIT_STATUS, WRITE_SITES,
                    ChaosInjector, chaos_active, chaos_suspended,
                    get_chaos, install_chaos)
from .spec import ACTIONS, MODES, ChaosSpec, SitePolicy

__all__ = [
    "ACTIONS",
    "CRASH_POINTS",
    "ChaosInjector",
    "ChaosSpec",
    "KILL_EXIT_STATUS",
    "MODES",
    "SitePolicy",
    "WRITE_SITES",
    "chaos_active",
    "chaos_suspended",
    "get_chaos",
    "install_chaos",
]
