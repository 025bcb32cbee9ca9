#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: one workload per process.

Usage, from the repository root::

    python3 perfbench/run.py --workload artefacts-full --seed 0 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics instead.
The last line of stdout is one JSON object; the exit code is 0 only
when every output check passed.  Times in it are scaled to a reference
host speed measured by a probe loop in the same run.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for fixtures and exports, inside the checkout.
WORK = ROOT / ".perfbench_work"
#: Where traced runs write their spans.
OUT = ROOT / ".perfbench_out"
#: Set-up repetitions per run; ``setup_s`` takes their median.
SETUP_REPS = 3
#: Host probe time that defines the reference host: reported times are
#: scaled to a host on which :func:`host_probe_ms` takes this long.
PROBE_REF_MS = 30.0
EXPERIMENT_IDS = ("table1", "eq1", "table2", "fig1", "fig2", "fig3", "fig4",
                  "fig5", "fig6", "fig7", "summary", "exascale", "faults")


def host_probe_ms() -> float:
    """A fixed pure-Python CPU loop owned by the harness (median of
    three): the program never changes it, so drift in it is the host's."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(summary: dict, counts: dict, n: int) -> dict:
    """Per-layer metrics, per traced pass, from the span summary."""
    def incl(name: str) -> float:
        return summary.get(name, {}).get("inclusive_s", 0.0) / n

    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0) / n

    def count(name: str) -> float:
        return counts.get(name, 0) / n

    gets = calls("perf.cache_get")
    out = {f"experiments.{eid}_s": (incl(f"experiments.{eid}"), "s")
           for eid in EXPERIMENT_IDS}
    out.update({
        "experiments.export_s": (
            summary.get("experiments.export", {}).get("self_s", 0.0) / n,
            "s"),
        "noise.multi_core_fwq_s": (incl("noise.multi_core_fwq"), "s"),
        "noise.multi_core_fwq_calls": (calls("noise.multi_core_fwq"),
                                       "count"),
        "noise.worst_nodes_s": (incl("noise.worst_nodes"), "s"),
        "noise.mixture_s": (incl("noise.mixture"), "s"),
        "noise.sample_batch_s": (incl("noise.sample_batch"), "s"),
        "noise.sample_batch_calls": (calls("noise.sample_batch"), "count"),
        "runtime.run_s": (incl("runtime.run"), "s"),
        "runtime.run_calls": (calls("runtime.run"), "count"),
        "perf.execute_cells_s": (incl("perf.execute_cells"), "s"),
        "perf.cells": (count("perf.cells"), "count"),
        "perf.cache_gets": (gets, "count"),
        "perf.cache_hits": (count("perf.cache_hits"), "count"),
        "perf.cache_hit_ratio": (
            count("perf.cache_hits") / gets if gets else 0.0, "ratio"),
        "perf.cache_put_s": (incl("perf.cache_put"), "s"),
        "engine.run_specs_s": (incl("engine.run_specs"), "s"),
        "engine.run_specs_calls": (calls("engine.run_specs"), "count"),
        "service.overhead_s": (
            max(0.0, incl("service.drain") - incl("engine.run_specs"))
            if "service.drain" in summary else 0.0, "s"),
        "service.submit_s": (incl("service.submit"), "s"),
        "service.claim_next_s": (incl("service.claim_next"), "s"),
        "service.claim_next_calls": (calls("service.claim_next"), "count"),
        "service.table_s": (incl("service.table"), "s"),
        "service.table_calls": (calls("service.table"), "count"),
        "service.jobspec_s": (incl("service.jobspec"), "s"),
        "service.complete_s": (incl("service.complete"), "s"),
        "service.journal_reads": (calls("service.journal_read"), "count"),
        "service.journal_lines_parsed": (
            count("service.journal_lines_parsed"), "count"),
        "service.journal_append_s": (incl("service.journal_append"), "s"),
        "service.journal_appends": (calls("service.journal_append"),
                                    "count"),
        "service.heartbeats": (calls("service.heartbeat"), "count"),
        "service.fsck_s": (incl("service.fsck"), "s"),
        "obs.fleet_load_s": (incl("obs.fleet_load"), "s"),
        "obs.report_json_s": (incl("obs.report_json"), "s"),
        "obs.prometheus_s": (incl("obs.prometheus"), "s"),
        "obs.chrome_s": (incl("obs.chrome"), "s"),
        "obs.rollups_s": (incl("obs.rollups"), "s"),
    })
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("artefacts-full", "service-drain",
                                 "journal-ops"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'repro'} is "
              "missing (run from a full checkout)", file=sys.stderr)
        return 2
    # One CPU for the whole run: the worker's heartbeat thread and the
    # main thread then hand off without cross-CPU wake-ups, which on a
    # shared host were the noisiest part of a drain.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    probes = [host_probe_ms()]
    sys.path[:0] = [str(SRC), str(HERE)]
    start = time.perf_counter()
    import workloads
    from spans import Tracer
    import_s = time.perf_counter() - start

    WORK.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work)
        setup_reps = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            discard = wl.setup()
            setup_reps.append(time.perf_counter() - start)
            for path in discard:
                shutil.rmtree(path)
            workloads.collect()
            probes.append(host_probe_ms())
        setup_wall_s = import_s + statistics.median(setup_reps)

        tracer = Tracer() if args.trace else None
        plain, traced = [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < args.seconds:
            wl.timed = nullcontext
            plain.append(wl.run_pass())
            workloads.collect()
            probes.append(host_probe_ms())
            if tracer is not None:
                wl.timed = tracer.installed
                traced.append(wl.run_pass())
                workloads.collect()
                probes.append(host_probe_ms())
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    pass_wall_s = statistics.median(p.wall for p in plain)
    pass_cpu_s = statistics.median(p.cpu for p in plain)
    # The host's speed drifts by up to 1.7x over minutes; the probe
    # taken between passes drifts with it, so scaling by the run's
    # median probe reports every run at one reference host speed.
    host_ms = statistics.median(probes)
    scale = PROBE_REF_MS / host_ms
    setup_s = setup_wall_s * scale
    pass_s = pass_wall_s * scale
    print(f"perfbench {args.workload} seed={args.seed} "
          f"passes={len(plain)} traced={len(traced)} "
          f"attempted={attempted} failed={failed}")
    print("untraced passes (wall s, cpu s):",
          [(round(p.wall, 3), round(p.cpu, 3)) for p in plain])
    rows = [("setup_s", setup_s, "s at reference host speed"),
            ("setup_wall_s", setup_wall_s, "s"),
            ("  import_s", import_s, "s"),
            ("  setup_reps_s", setup_reps, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("pass_s", pass_s, "s at reference host speed"),
            ("pass_wall_s", pass_wall_s, "s"),
            ("pass_cpu_s", pass_cpu_s, "s"),
            *wl.report(plain),
            ("bench.host_probe_ms", host_ms,
             f"ms (median of {len(probes)}; reference {PROBE_REF_MS})")]
    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb(), "MB"),
                   "pass_s": (pass_s, "s")}
    else:
        summary = tracer.summary()
        metrics = layer_metrics(summary, tracer.counts, len(traced))
        traced_s = statistics.median(p.wall for p in traced)
        metrics["bench.trace_overhead_pct"] = (
            (traced_s - pass_wall_s) / pass_wall_s * 100, "%")
        metrics["bench.host_probe_ms"] = (host_ms, "ms")
        rows.append(("traced pass_s", traced_s, "s"))
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, meta={"workload": args.workload,
                                 "seed": args.seed,
                                 "traced_passes": len(traced),
                                 "summary": summary})
        rows.append(("spans written to", str(path.relative_to(ROOT)), ""))
        rows += [(name, value, unit)
                 for name, (value, unit) in metrics.items()]
    for name, value, unit in rows:
        print(f"{name:32s} {value} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
