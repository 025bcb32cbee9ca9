#!/usr/bin/env python3
"""Generate docs/API.md: every public item with its one-line summary."""

from __future__ import annotations

import importlib
import inspect
import pathlib

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.hardware",
    "repro.kernel",
    "repro.mckernel",
    "repro.noise",
    "repro.net",
    "repro.apps",
    "repro.runtime",
    "repro.faults",
    "repro.platform",
    "repro.experiments",
    "repro.engine",
    "repro.service",
    "repro.durable",
    "repro.jsonfields",
    "repro.chaos",
    "repro.perf",
    "repro.obs",
]

# Hand-written prose appended after the generated tables, so a
# regeneration never loses it.
PERFORMANCE_SECTION = """\
## Performance & parallel execution

The sweeps behind `compare`, Figs. 5-7 and `run_all` decompose into
independent *cells*, each one `repro.platform.RunSpec` (platform, app,
n_nodes, n_runs, seed).  Each cell derives its RNG streams purely from
those coordinates, so `repro.perf` can execute cells in any order —
across worker processes or out of a memoized cache — and still
reproduce the serial results bit for bit.

Three composable layers:

* **Parallel executor** — `execute_cells(cells)` fans cells out over
  the ambient context's `ProcessPoolExecutor` and reassembles results
  in submission order.  Pool-infrastructure failures degrade to the
  serial path transparently; model errors propagate unchanged.
* **Run cache** — `RunCache` stores RunResults content-addressed by
  SHA-256 of each cell's canonical RunSpec JSON plus the package
  version (`spec_key`) — the key is auditable from a text artifact,
  and disk entries embed the spec next to the result.
  Any configuration change produces a new key, so stale entries are
  unreachable rather than invalidated.  The disk tier lives in
  `$REPRO_CACHE_DIR` (default `~/.cache/repro-runs`); writes are
  atomic, and a corrupt entry (truncated write, bit rot, hand edit)
  is moved to the `quarantine/` subdirectory and read as a miss — one
  bad file never kills a sweep.  `repro cache verify` audits the whole
  disk tier with the same check.
* **Metrics** — `repro.obs.MetricsRegistry` accumulates
  executor/cache event counts, wall-time, and labeled series;
  `repro experiments <ids> --stats` prints the report and
  `repro metrics <ids>` dumps Prometheus exposition text.

See `docs/OBSERVABILITY.md` for the cross-layer tracer
(`repro trace run`), exporters, and the noise-attribution workflow.

The knobs (`jobs`, `cache`, `counters`, `cell_timeout`,
`max_retries`, `target_ci`, `max_adaptive_runs`) are the fields of one
frozen `repro.perf.PerfContext`, set one way: install a context and
every sweep inside inherits it.

```python
from repro.experiments import run_all, run_experiment
from repro.perf import RunCache, perf_context

with perf_context(jobs=4, cache=RunCache.default()):
    run_experiment("fig5", fast=False)              # parallel, memoized
    run_all(fast=False)                             # one shared pool
```

CLI equivalents: `repro experiments fig5 --jobs 0 --stats`
(`--jobs 0` = one worker per available CPU; `--no-cache`,
`--cache-dir DIR` to steer the cache) and
`repro cache info|clear|verify`.

Below the executor, the Monte-Carlo hot paths are vectorized —
batched trial sampling in `AppRunner`, fused order-statistic draws in
`BarrierDelaySampler.sample_batch`, chunked event charging in the DES
`NoisyCore` — under a strict rule: every vectorization is bit-identical
to the loop it replaced.  `perf_context(target_ci=...)` additionally
enables variance-adaptive early stopping of Monte-Carlo cells (off by
default; deterministic across `--jobs`).  See `docs/PERFORMANCE.md`
for the bit-identity rules, the adaptive-stopping knob, and the speed
budget.

Guarantee: for every experiment id, parallel and cached runs render
byte-identical output to a serial, uncached run
(`tests/test_perf_executor.py`, `tests/test_perf_cache.py`).  The
opt-in `pytest -m perfsmoke` demo times the figure-regeneration loop
and asserts the combined speedup; `tools/bench_compare.py` diffs two
benchmark timing files, fails on >20% regressions, and with
`--budget benchmarks/budgets.json` enforces the committed speed
budget (CI's `perf` job runs exactly this).

## Fault injection & tolerance (`repro.faults`)

`FaultSpec` names a failure environment as data: per-node MTBF,
cgroup OOM-kill / proxy-crash / daemon-stall rates (per node-hour, so
exposure scales with job size × walltime), IKC drop probability, plus
the tolerance policy (bounded retries with exponential backoff,
optional periodic checkpoint/restart).  The default spec injects
nothing.  A spec goes straight to the batch scheduler; platform
documents carry none, so a fault scenario never enters a run-cache
key.

`FaultInjector` turns a spec into deterministic `FaultEvent`
schedules: every draw comes from a named stream seeded by
`(spec.seed, fnv1a(stream))`, so a `(FaultSpec, stream)` pair replays
identically on any process and for any `--jobs` value.

Component wiring:

* `BatchScheduler(engine, nodes, faults=spec)` runs the canonical
  fault-tolerant job state machine — RUNNING → RESTARTING (bounded
  retries, exponential backoff, checkpoint-aware restart point) →
  FAILED — and reports `success_rate()`, `effective_utilization()`
  (goodput: completed payload only) and `fault_report()` (the
  checkpoint-cost vs lost-work tradeoff, per run).
* An injected OOM raises the existing `CgroupLimitExceeded`, and an
  injected proxy crash raises `ProxyCrashed`, the §6 proxy-death
  failure mode (all Linux-side delegated state is lost); the batch
  scheduler retries both.

```python
from repro.faults import FaultSpec
from repro.runtime.batchsched import BatchScheduler
from repro.sim.engine import Engine

faults = FaultSpec(node_mtbf_hours=8000.0, checkpoint_interval=1800.0,
                   checkpoint_cost=60.0, seed=42)
sched = BatchScheduler(Engine(), total_nodes=8192, faults=faults)
FaultSpec.from_json(faults.to_json()) == faults   # round-trips as data
```

The `faults` experiment (`repro experiment faults --full`) sweeps job
success rate and effective utilization against node count for both
kernels under one seeded spec; `pytest -m faultsmoke` soaks the
full-scale projection in CI.

## The execution engine & job service

Every way a `repro.platform.RunSpec` becomes a RunResult — library
call, one-shot CLI, experiment registry, exporter, service worker —
runs through one `repro.engine.ExecutionEngine`.  A bare
`ExecutionEngine()` inherits the ambient `perf_context` (pure
pass-through, byte-identical to calling the runners directly);
`ExecutionEngine.from_options(jobs=..., cache=..., ...)` builds a
`PerfContext` and installs that object for the duration of each
`session()`.  Because there is a
single execution core, the byte-identity guarantee extends across
front doors for free.

`repro.service` adds the durable shape on top: a persistent job queue
(`repro submit`), a crash-tolerant worker fleet (`repro serve`), and
`repro status`/`repro fetch` for inspection and artifact retrieval.
All queue state is an append-only canonical-JSONL journal plus
`O_CREAT|O_EXCL` claim files — atomic claims, clock-free heartbeat
leases, atomic result publication — under `$REPRO_SERVICE_DIR`
(default `~/.local/state/repro-service`).  Every one of those writes
goes through the primitives in `repro.durable`, the only module
that issues raw durability syscalls (`tests/test_durable.py` fails on
one anywhere else).  Workers
share the queue's content-addressed run cache, so artifacts are
byte-identical to the serial `repro experiment`/`repro export` path
for any worker count, including after `kill -9` and lease re-claims.
See
`docs/SERVICE.md` for the state machine, the lease algebra, and a
crash-recovery walkthrough.

These claims are tested, not asserted: `repro.chaos` threads named
crash points through the journal, queue, worker and run cache and
fires them on a deterministic seeded schedule (`ChaosSpec`), while
`repro service verify [--repair]` replays the journal against the
on-disk state and checks every invariant the service relies on,
performing only provably-safe repairs (quarantine / re-queue /
complete).  `repro chaos soak` composes the two — crash, repair,
restart, repeat — and accepts nothing short of a clean verify plus
artifacts byte-identical to the serial path.  See `docs/CHAOS.md`.
"""


def first_line(obj) -> str:
    doc = inspect.getdoc(obj) or ""
    return doc.splitlines()[0] if doc else "(undocumented)"


def main() -> None:
    lines = [
        "# API reference",
        "",
        "One line per public item; generated by `tools/gen_api.py`.",
        "Full documentation lives in the docstrings.",
        "",
    ]
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        lines.append(f"## `{pkg_name}`")
        lines.append("")
        lines.append(first_line(pkg))
        lines.append("")
        names = getattr(pkg, "__all__", None)
        if not names:
            lines.append("")
            continue
        rows = []
        for name in sorted(set(names)):
            obj = getattr(pkg, name, None)
            if obj is None:
                continue
            if inspect.ismodule(obj):
                kind = "module"
            elif inspect.isclass(obj):
                kind = "class"
            elif callable(obj):
                kind = "function"
            else:
                kind = "constant"
            summary = (first_line(obj) if kind in ("class", "function")
                       else "")
            rows.append(f"| `{name}` | {kind} | {summary} |")
        lines.append("| name | kind | summary |")
        lines.append("|---|---|---|")
        lines.extend(rows)
        lines.append("")
    lines.append(PERFORMANCE_SECTION)
    out = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out} ({len(lines)} lines)")


if __name__ == "__main__":
    main()
