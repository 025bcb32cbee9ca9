"""Crash points and the ambient chaos injector.

LiveStack's lesson (PAPERS.md) applied to the service layer: recovery
code is only trustworthy if the stack can be interrupted *at every
dangerous instruction*, not just between operations.  Each named crash
point below marks one instruction window where a real ``kill -9``
would leave observable on-disk state — an orphan claim file, a torn
journal line, a published-but-unacked result — and the injector can
make exactly that state happen on demand, reproducibly.

Design constraints, mirroring :func:`~repro.obs.tracer.get_tracer`:

* **Zero overhead when off.**  Sites consult the ambient injector
  (:func:`get_chaos`) and bail on ``None`` — one module-global read
  and an ``is None`` test; no injector installed ⇒ byte-identical
  behaviour, no allocation, nothing.
* **Deterministic schedules.**  Each site draws from its own stream
  seeded by ``(spec.seed, fnv1a("chaos/<site>"))``; the k-th
  evaluation of a site fires (or not) identically across runs of the
  same spec, and sites never perturb each other's draws.
* **Honest crashes.**  The *kill* action raises
  :class:`~repro.errors.CrashInjected` (a ``BaseException`` — no
  ``except ReproError`` absorbs it) or, in ``exit`` mode, calls
  ``os._exit(137)``: no ``finally`` blocks, no buffered flushes, the
  state on disk is what a SIGKILL leaves.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, NoReturn, Optional

import numpy as np

from ..errors import ConfigurationError, CrashInjected
from ..obs.metrics import get_metrics
from ..obs.tracer import get_tracer
from ..sim.rng import fnv1a_64

if TYPE_CHECKING:
    from .spec import ChaosSpec

__all__ = ["CRASH_POINTS", "WRITE_SITES",
           "ChaosInjector", "chaos_active", "chaos_suspended",
           "get_chaos", "install_chaos"]

#: The crash-point catalogue, in sorted order.  Hook call sites must
#: name one of these — an unknown site is a ConfigurationError at
#: policy-build time and when an injector evaluates it, so a typo
#: never silently disables a schedule.
#: Each entry is one dangerous instruction window; see docs/CHAOS.md
#: for the on-disk state a crash at each point leaves behind.
CRASH_POINTS = (
    "cache.put",
    "engine.run",
    "journal.append",
    "queue.claim",
    "queue.complete",
    "queue.lease_break",
    "queue.lease_bump",
    "queue.submit",
    "telemetry.append",
    "worker.publish.post_rename",
    "worker.publish.pre_rename",
)

#: Sites that wrap an in-flight ``write(2)`` (through
#: :mod:`repro.durable`) and therefore support the *torn-write* action
#: (truncating the write at a seeded byte offset).
WRITE_SITES = frozenset({
    "cache.put",
    "journal.append",
    "queue.lease_bump",
    "telemetry.append",
})

#: Exit status delivered by *kill* in ``exit`` mode — 128 + SIGKILL,
#: what a shell reports for a process killed with ``kill -9``.
KILL_EXIT_STATUS = 137


class ChaosInjector:
    """Evaluates a :class:`~repro.chaos.spec.ChaosSpec` at crash points.

    One injector is one realized schedule: it owns the per-site RNG
    streams and fire counters, so re-evaluating the same spec needs a
    fresh injector (the soak builds one per round).
    """

    def __init__(self, spec: "ChaosSpec") -> None:
        self.spec = spec
        self._policies = {policy.site: policy for policy in spec.sites}
        self._rngs = {
            site: np.random.default_rng(np.random.SeedSequence(
                [spec.seed & 0xFFFFFFFFFFFFFFFF,
                 fnv1a_64(f"chaos/{site}")]))
            for site in self._policies
        }
        #: site -> evaluations seen / actions fired.
        self.evaluations = {site: 0 for site in self._policies}
        self.fires = {site: 0 for site in self._policies}

    # -- the decision stream ------------------------------------------

    def decide(self, site: str) -> Optional[str]:
        """Consume one draw for ``site``; the action to fire, or None.

        Unpoliced sites cost a dict miss and consume nothing, so a
        spec that enables one site leaves every other site's stream —
        and behaviour — untouched.  A site missing from
        :data:`CRASH_POINTS` is a :class:`ConfigurationError`: a hook
        naming an unregistered point fails the first time chaos runs
        over it.
        """
        policy = self._policies.get(site)
        if policy is None:
            if site not in CRASH_POINTS:
                raise ConfigurationError(
                    f"chaos hook names unregistered crash point {site!r}; "
                    f"known: {list(CRASH_POINTS)}")
            return None
        index = self.evaluations[site]
        self.evaluations[site] = index + 1
        if policy.max_fires and self.fires[site] >= policy.max_fires:
            return None
        # Draw unconditionally so the stream position depends only on
        # the evaluation index, never on skip/max_fires bookkeeping.
        draw = float(self._rngs[site].random())
        if index < policy.skip:
            return None
        if draw >= policy.p:
            return None
        self.fires[site] += 1
        return policy.action

    def report(self) -> dict:
        """Deterministic summary: per-site evaluation and fire counts."""
        return {
            "sites": {
                site: {"evaluations": self.evaluations[site],
                       "fires": self.fires[site],
                       "action": self._policies[site].action}
                for site in sorted(self._policies)
            },
            "total_fires": sum(self.fires.values()),
        }

    # -- hook entry points --------------------------------------------

    def on(self, site: str) -> None:
        """A control-flow crash point: maybe die here.

        *kill* raises/exits; *io-error* raises ``OSError``;
        *torn-write* is rejected at spec build time for these sites.
        """
        action = self.decide(site)
        if action is None:
            return
        self._fire(site, action)

    def write(self, fd: int, data: bytes, site: str) -> None:
        """A write-wrapping crash point: perform ``data``'s write with
        the site's policy applied.

        * no action — one full ``os.write``, exactly the unhooked code;
        * *io-error* — ``OSError`` before any byte is written;
        * *torn-write* — write a seeded strict prefix, then die;
        * *kill* — write everything, then die (the append landed, the
          acknowledgement never did).
        """
        action = self.decide(site)
        if action is None:
            os.write(fd, data)
            return
        if action == "io-error":
            self._fire(site, action)  # raises OSError, nothing written
        if action == "torn-write":
            cut = int(self._rngs[site].integers(0, max(1, len(data))))
            os.write(fd, data[:cut])
            self._fire(site, action)  # dies mid-write
        os.write(fd, data)
        self._fire(site, "kill")  # full write landed, ack never did

    # -- firing -------------------------------------------------------

    def _fire(self, site: str, action: str) -> NoReturn:
        """Deliver ``action`` — never returns (raises or exits)."""
        metrics = get_metrics()
        metrics.counter("chaos.fires", site=site, action=action).inc()
        tracer = get_tracer()
        if tracer is not None:
            tracer.event("faults", f"chaos.{action}",
                         ts=tracer.advance("faults"), actor=site)
        if action == "io-error":
            metrics.counter("chaos.io_errors").inc()
            raise OSError(f"chaos: injected I/O error at {site}")
        if action == "torn-write":
            metrics.counter("chaos.torn_writes").inc()
        else:
            metrics.counter("chaos.kills").inc()
        if self.spec.mode == "exit":
            os._exit(KILL_EXIT_STATUS)
        raise CrashInjected(site)


#: The ambient injector; ``None`` disables every crash point.
_CHAOS: Optional[ChaosInjector] = None


def get_chaos() -> Optional[ChaosInjector]:
    """The installed injector, or ``None`` when chaos is off.

    Hook call sites mirror the tracer's shape — ``cz = get_chaos()`` /
    ``if cz is not None: ...`` — so a run without chaos costs one
    module-global read per dangerous instruction.
    """
    return _CHAOS


def install_chaos(injector: Optional[ChaosInjector]) -> None:
    """Install ``injector`` process-wide (``None`` uninstalls).

    The fleet-worker shape: ``repro serve --chaos SPEC.json`` installs
    for the whole process lifetime.  Scoped use wants
    :func:`chaos_active` instead.
    """
    global _CHAOS
    _CHAOS = injector


@contextmanager
def chaos_active(injector: ChaosInjector) -> Iterator[ChaosInjector]:
    """Install ``injector`` for the block; the previous ambient state
    is restored on exit, so nested scopes never leak."""
    global _CHAOS
    previous = _CHAOS
    _CHAOS = injector
    try:
        yield injector
    finally:
        _CHAOS = previous


@contextmanager
def chaos_suspended() -> Iterator[None]:
    """Disable chaos for the block (fsck/repair runs inside a soak must
    observe crashes, not suffer new ones)."""
    global _CHAOS
    previous = _CHAOS
    _CHAOS = None
    try:
        yield
    finally:
        _CHAOS = previous
