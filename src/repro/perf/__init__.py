"""repro.perf — the performance subsystem of the experiment engine.

Three cooperating layers make repeated artefact regeneration fast
without perturbing a single simulated number:

* :mod:`repro.perf.executor` — a deterministic parallel sweep executor:
  independent (app, OS, n_nodes) cells fan out over a
  ``concurrent.futures.ProcessPoolExecutor`` (with a transparent serial
  fallback) and are reassembled in submission order, so parallel runs
  are byte-identical to serial ones;
* :mod:`repro.perf.cache` — a content-addressed memoization cache for
  :class:`~repro.runtime.runner.RunResult`: keys are SHA-256 digests of
  each cell's canonical :class:`~repro.platform.spec.RunSpec` JSON
  (:func:`spec_key`), values live in memory and optionally on disk
  (``$REPRO_CACHE_DIR`` or ``~/.cache/repro-runs``);
* :mod:`repro.obs.metrics` — wall-time / hit-rate / labeled-series
  instrumentation surfaced by ``repro experiments --stats`` and
  ``repro metrics``.

:mod:`repro.perf.context` ties them together: ``perf_context(jobs=4,
cache=...)`` makes every sweep inside the block fan out and memoize.
"""

from __future__ import annotations

from .. import _lazy_exports

#: Where each re-export lives.  A reader of the cache or of spec keys
#: alone (the job service's read verbs) never loads the executor.
_EXPORTS = {
    "MetricsRegistry": "..obs.metrics",
    **dict.fromkeys(("RunCache", "default_cache_dir"), ".cache"),
    **dict.fromkeys(("PerfContext", "get_context", "perf_context"),
                    ".context"),
    **dict.fromkeys(("RunCell", "execute_cells"), ".executor"),
    "spec_key": ".fingerprint",
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
__all__ = sorted(_EXPORTS)
