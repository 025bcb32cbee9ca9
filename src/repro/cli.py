"""Command-line interface.

    python -m repro list
    python -m repro experiments table2 [--full] [--seed N] [--jobs N] [--stats]
    python -m repro experiments table2 --spec my_platform.json
    python -m repro platform list
    python -m repro platform show fugaku-production
    python -m repro platform validate my_platform.json
    python -m repro run my_run.json
    python -m repro run my_platform.json --app LQCD --nodes 2048
    python -m repro compare LQCD --platform fugaku --nodes 2048
    python -m repro fwq --platform fugaku --os mckernel --duration 60
    python -m repro cache info|clear|verify|gc
    python -m repro trace run table2 --out trace.json [--jsonl ev.jsonl]
    python -m repro trace summarize ev.jsonl --top 10
    python -m repro metrics table2 fig5
    python -m repro submit RUN.json | --experiment fig5
    python -m repro serve --drain [--workers N] [--telemetry]
    python -m repro status [JOB] [--json]
    python -m repro fetch JOB [--out DIR]
    python -m repro service verify [--repair]
    python -m repro service top
    python -m repro service report [--format json|prom|chrome] [--check]

The CLI is a thin shell over the library; anything it prints can be
obtained programmatically from :mod:`repro.experiments`,
:mod:`repro.platform` and :func:`repro.quick_compare`.  Platforms are
declarative JSON documents (:class:`repro.platform.PlatformSpec`):
``platform show`` prints any registry entry as a starting point, and
every spec-accepting command takes a JSON file in its place.

Experiment runs fan their sweeps out over ``--jobs`` worker processes
(``0`` = one per available CPU) and memoize RunResults in the run
cache (``$REPRO_CACHE_DIR`` or ``~/.cache/repro-runs``; disable with
``--no-cache``), so regenerating a figure is parallel the first time
and a cache replay afterwards — byte-identical output either way.

Every execution path — one-shot and service alike — runs through the
shared :class:`repro.engine.ExecutionEngine`, so ``repro submit`` +
``repro serve`` produce artifacts byte-identical to ``repro
experiment``/``repro export`` for any worker count (see
``docs/SERVICE.md``).

``trace run`` re-runs an experiment with the :mod:`repro.obs` tracer
installed and writes a Chrome/Perfetto ``trace.json`` (open it at
https://ui.perfetto.dev); ``--trace FILE`` on ``experiments`` does the
same without changing the printed output.  ``metrics`` dumps the
run's :class:`~repro.obs.metrics.MetricsRegistry` in Prometheus
exposition format.
"""

from __future__ import annotations

import argparse
import os
import sys


def _auto_jobs() -> int:
    """One worker per CPU actually available to this process."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # platforms without affinity masks
        return max(1, os.cpu_count() or 1)


def _seed(text: str) -> int:
    """The argparse type of every ``--seed``: a non-negative integer,
    the range every spec's ``seed`` field takes."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _make_cache(args: argparse.Namespace):
    from .perf.cache import RunCache

    if getattr(args, "no_cache", False):
        return None
    if getattr(args, "cache_dir", None):
        return RunCache(args.cache_dir)
    return RunCache.default()


def _cmd_list(args: argparse.Namespace) -> int:
    from .apps import ALL_PROFILES
    from .experiments import EXPERIMENTS

    print("experiments:")
    for eid, (title, _) in EXPERIMENTS.items():
        print(f"  {eid:<10} {title}")
    print("\napplications:")
    for name, factory in ALL_PROFILES.items():
        p = factory()
        print(f"  {name:<10} {p.description}")
    return 0


def _load_spec_file(path: str):
    from .jsonfields import read_text
    from .platform import load_spec

    return load_spec(read_text(path, "spec"))


def _cmd_experiment(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from .engine import ExecutionEngine
    from .errors import ConfigurationError
    from .obs.metrics import MetricsRegistry
    from .obs.tracer import tracing
    from .platform import PlatformSpec

    platform = None
    if args.spec:
        platform = _load_spec_file(args.spec)
        if not isinstance(platform, PlatformSpec):
            raise ConfigurationError(
                f"{args.spec}: experiments take a platform spec, not a "
                "run spec (drop the 'platform'/'app' nesting)")
    jobs = _auto_jobs() if args.jobs == 0 else args.jobs
    counters = MetricsRegistry()
    engine = ExecutionEngine.from_options(jobs=jobs,
                                          cache=_make_cache(args),
                                          counters=counters)
    trace_path = getattr(args, "trace", None)
    scope = tracing() if trace_path else nullcontext(None)
    with scope as tracer, engine.session():
        for eid in args.ids:
            result = engine.run_experiment(eid, fast=not args.full,
                                           seed=args.seed,
                                           platform=platform)
            print(result.render())
            if result.paper_reference:
                print(f"[paper reference: {result.paper_reference}]")
            print()
    if trace_path:
        from .obs.export import write_chrome_trace

        write_chrome_trace(tracer, trace_path,
                           metadata={"experiments": args.ids,
                                     "seed": args.seed,
                                     "fast": not args.full})
        print(f"trace written to {trace_path} "
              f"({len(tracer)} events, layers: "
              f"{', '.join(tracer.layers_seen())})", file=sys.stderr)
    if args.stats:
        print(counters.report())
    return 0


def _cmd_platform(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError
    from .platform import build, get_platform, platform_names

    if args.action != "list" and not args.name:
        raise ConfigurationError(
            f"platform {args.action} needs a "
            f"{'name' if args.action == 'show' else 'spec JSON file'}")
    if args.action == "list":
        for name in platform_names():
            spec = get_platform(name)
            print(f"  {name:<24} {spec.machine:<16} "
                  f"{spec.os_kind:<9} {spec.tuning}")
    elif args.action == "show":
        print(get_platform(args.name).to_json(indent=2))
    else:  # validate
        spec = _load_spec_file(args.name)
        kind = type(spec).__name__
        # Resolving proves the spec composes, not just parses.
        from .platform import RunSpec

        platform = spec.platform if isinstance(spec, RunSpec) else spec
        resolved = build(platform)
        if isinstance(spec, RunSpec):
            # The range ``repro run`` applies to the same cell.
            from .runtime.runner import check_run_args

            check_run_args(resolved.machine, spec.n_nodes, spec.n_runs)
        print(f"{args.name}: valid {kind} ({platform.name!r})")
        if isinstance(spec, RunSpec):
            print(f"fingerprint: {spec.fingerprint()}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .engine import ExecutionEngine
    from .errors import ConfigurationError
    from .platform import PlatformSpec, RunSpec

    spec = _load_spec_file(args.spec)
    if isinstance(spec, PlatformSpec):
        if not args.app:
            raise ConfigurationError(
                f"{args.spec} is a platform spec; pass --app (and "
                "--nodes) to make it a run, or supply a run spec")
        spec = RunSpec(platform=spec, app=args.app, n_nodes=args.nodes,
                       n_runs=args.runs, seed=args.seed)
    elif args.app:
        raise ConfigurationError(
            f"{args.spec} is already a run spec; --app conflicts")
    engine = ExecutionEngine.from_options(cache=_make_cache(args))
    result = engine.run_spec(spec)
    print(f"{result.app} on {result.machine} / {result.os_kind}, "
          f"{result.n_nodes} nodes ({result.n_threads} HW threads):")
    print(f"  mean time : {result.mean_time:9.3f} s "
          f"(+/- {result.std_time:.3f})")
    b = result.breakdown
    print(f"  breakdown [s]: compute={b.compute:.2f} tlb={b.tlb:.3f} "
          f"churn={b.churn:.3f} collective={b.collective:.3f} "
          f"noise={b.noise:.3f} init={b.init:.3f}")
    print(f"  fingerprint: {spec.fingerprint()}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = _make_cache(args)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached run(s) from {cache.directory}")
    elif args.action == "gc":
        report = cache.gc(max_age_days=args.max_age_days,
                          max_bytes=args.max_bytes)
        print(f"gc in {cache.directory}: removed {report['removed']} of "
              f"{report['checked']} disk entr(ies), reclaimed "
              f"{report['reclaimed_bytes']} bytes "
              f"({report['kept']} kept; quarantine untouched)")
    elif args.action == "verify":
        report = cache.verify()
        print(f"checked {report['checked']} disk entr(ies) in "
              f"{cache.directory}: {report['ok']} ok, "
              f"{len(report['quarantined'])} quarantined")
        for name in report["quarantined"]:
            print(f"  quarantined: {name}")
        return 1 if report["quarantined"] else 0
    else:
        info = cache.info()
        for field, value in info.items():
            print(f"{field:<14} {value}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from . import quick_compare

    comp = quick_compare(args.app, platform=args.platform,
                         nodes=args.nodes, n_runs=args.runs,
                         seed=args.seed)
    print(f"{args.app} on {args.platform}, {args.nodes} nodes "
          f"({comp.linux.n_threads} HW threads):")
    print(f"  Linux    : {comp.linux.mean_time:9.3f} s "
          f"(+/- {comp.linux.std_time:.3f})")
    print(f"  McKernel : {comp.mckernel.mean_time:9.3f} s "
          f"(+/- {comp.mckernel.std_time:.3f})")
    print(f"  McKernel relative performance: "
          f"{comp.relative_performance:.3f} "
          f"({comp.speedup_percent:+.1f}%)")
    b = comp.linux.breakdown
    print(f"  Linux breakdown [s]: compute={b.compute:.2f} tlb={b.tlb:.3f} "
          f"churn={b.churn:.3f} collective={b.collective:.3f} "
          f"noise={b.noise:.3f} init={b.init:.3f}")
    return 0


def _cmd_fwq(args: argparse.Namespace) -> int:
    import numpy as np

    from .apps.fwq import FwqConfig, run_fwq
    from .platform import NoiseSwitches, PlatformSpec, build
    from .units import to_us

    machine = "fugaku" if args.platform == "fugaku" else "oakforest-pacs"
    if args.tuning == "untuned":
        tuning = "untuned"
    else:
        tuning = ("fugaku-production" if args.platform == "fugaku"
                  else "ofp-default")
    spec = PlatformSpec(
        name=f"fwq/{args.platform}/{args.os}/{tuning}",
        machine=machine, os_kind=args.os, tuning=tuning,
        # Single-node, short-horizon characterisation: node-level
        # straggler events would only distort a seeded short run.
        noise=NoiseSwitches(include_stragglers=False),
    )
    resolved = build(spec)
    rng = np.random.default_rng(args.seed)
    result = run_fwq(resolved.noise_sources(),
                     FwqConfig(duration=args.duration), rng)
    print(f"FWQ on {resolved.machine.name} / {args.os} "
          f"({resolved.tuning.name}), {args.duration:.0f} s:")
    print(f"  iterations       : {len(result.iteration_lengths)}")
    print(f"  max noise length : {to_us(result.max_noise_length):.2f} us")
    print(f"  noise rate (Eq.2): {result.noise_rate:.3e}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from .engine import ExecutionEngine

    engine = ExecutionEngine()
    written = engine.export_experiments(args.directory,
                                        ids=args.ids or None,
                                        fast=not args.full, seed=args.seed)
    for eid, paths in written.items():
        print(f"{eid}:")
        for p in paths:
            print(f"  {p}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.trace_cmd == "summarize":
        from .obs.attribution import NoiseAttribution

        attribution = NoiseAttribution.from_jsonl(args.file)
        print(attribution.report(top_n=args.top))
        return 0

    # trace run
    from .obs.runtrace import trace_experiment

    jobs = _auto_jobs() if args.jobs == 0 else args.jobs
    traced = trace_experiment(args.id, fast=not args.full, seed=args.seed,
                              jobs=jobs)
    path = traced.write(args.out)
    counts = traced.tracer.layer_counts()
    print(f"{args.id}: {len(traced.tracer)} events -> {path}")
    print("  layers: " + ", ".join(f"{k}={v}" for k, v in counts.items()))
    if traced.tracer.dropped:
        print(f"  ring overflow: {traced.tracer.dropped} event(s) dropped "
              "(raise --buffer)", file=sys.stderr)
    if args.jsonl:
        print(f"  event log -> {traced.write_jsonl(args.jsonl)}")
    if args.summary:
        print()
        print(traced.attribution().report(top_n=args.top))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .engine import ExecutionEngine
    from .obs.export import prometheus_text
    from .obs.metrics import MetricsRegistry

    jobs = _auto_jobs() if args.jobs == 0 else args.jobs
    metrics = MetricsRegistry()
    engine = ExecutionEngine.from_options(jobs=jobs,
                                          cache=_make_cache(args),
                                          counters=metrics)
    with engine.session():
        for eid in args.ids:
            engine.run_experiment(eid, fast=not args.full, seed=args.seed)
            metrics.counter("experiments_run", experiment=eid).inc()
    sys.stdout.write(prometheus_text(metrics))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import serve

    summary = serve(directory=args.dir, workers=args.workers,
                    drain=args.drain, poll_interval=args.poll,
                    lease_ticks=args.lease_ticks,
                    max_retries=args.max_retries, backoff=args.backoff,
                    max_polls=args.max_polls, chaos=args.chaos,
                    telemetry=args.telemetry)
    if "worker" in summary:
        print(f"worker {summary['worker']}: {summary['executed']} job(s) "
              f"executed, {summary['failed']} failed, "
              f"{summary['leases_broken']} lease(s) broken, "
              f"{summary['discarded']} attempt(s) discarded")
    else:
        print(f"fleet of {summary['workers']} worker(s) finished "
              f"(exit codes: {summary['worker_exit_codes']})")
    return summary["exit_code"]


def _cmd_submit(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError
    from .jsonfields import read_text
    from .service import JobQueue, JobSpec, load_jobspec

    if bool(args.spec) == bool(args.experiment):
        raise ConfigurationError(
            "submit takes exactly one of: a SPEC.json file, or "
            "--experiment ID")
    if args.experiment:
        jobspec = JobSpec.for_experiment(args.experiment,
                                         fast=not args.full,
                                         seed=args.seed)
    else:
        jobspec = load_jobspec(read_text(args.spec, "spec"))
    queue = JobQueue(args.dir)
    # Bare id on stdout so scripts can do JOB=$(repro submit ...).
    print(queue.submit(jobspec))
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from .service import JobQueue, JobState

    # Read-only (create=False): asking about an empty service is a
    # question, not a reason to scaffold directories.
    queue = JobQueue(args.dir, create=False)
    if getattr(args, "json", False):
        return _status_json(queue, args.job)
    if not args.job and not queue.root.is_dir():
        print(f"no service directory at {queue.root} "
              "(nothing submitted yet — see 'repro submit')")
        return 0
    if args.job:
        view = queue.job(args.job)
        for key, value in sorted(view.to_dict().items()):
            print(f"{key:<10} {value}")
        claim = queue.read_claim(args.job)
        if claim:
            print(f"{'claim':<10} worker={claim.get('worker', '?')} "
                  f"attempt={claim.get('attempt', '?')} "
                  f"heartbeat={claim.get('heartbeat', '?')}")
        if view.state is JobState.DONE:
            print(f"{'artifacts':<10} "
                  f"{len(queue.result_files(args.job))} file(s) in "
                  f"{queue.result_dir(args.job)}")
        return 1 if view.state is JobState.FAILED else 0
    table = queue.table()
    if not table:
        print(f"no jobs under {queue.root}")
        return 0
    print(f"{'job':<20} {'state':<9} {'attempts':<9} {'kind':<11} worker")
    for job_id in sorted(table):
        view = table[job_id]
        print(f"{view.job_id:<20} {view.state.value:<9} "
              f"{view.attempts:<9} {view.kind:<11} {view.worker}")
    return 0


def _status_json(queue, job: "str | None") -> int:
    """``status --json``: the same facts as the text form, as one
    canonical-JSON document (sorted keys, no whitespace drift — safe
    to diff across invocations)."""
    from .obs.export import canonical_json
    from .service import JobState

    if not job:
        table = queue.table() if queue.root.is_dir() else {}
        print(canonical_json(
            {"jobs": [table[j].to_dict() for j in sorted(table)]}))
        return 0
    view = queue.job(job)
    artifacts = []
    if view.state is JobState.DONE:
        base = queue.result_dir(job)
        artifacts = [str(p.relative_to(base))
                     for p in queue.result_files(job)]
    print(canonical_json({
        "artifacts": artifacts,
        "claim": queue.read_claim(job),
        "job": view.to_dict(),
    }))
    return 1 if view.state is JobState.FAILED else 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    import pathlib
    import shutil

    from .errors import ServiceError
    from .service import JobQueue

    queue = JobQueue(args.dir, create=False)
    if not queue.root.is_dir():
        raise ServiceError(
            f"no service directory at {queue.root} "
            "(nothing submitted yet — see 'repro submit')")
    files = queue.result_files(args.job)
    if not args.out:
        for path in files:
            print(path)
        return 0
    base = queue.result_dir(args.job)
    outdir = pathlib.Path(args.out)
    for path in files:
        dest = outdir / path.relative_to(base)
        dest.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(path, dest)
        print(dest)
    return 0


def _cmd_service(args: argparse.Namespace) -> int:
    if args.service_cmd == "verify":
        from .service.fsck import report_json, verify_service

        report = verify_service(args.dir, repair=args.repair)
        print(report_json(report))
        return 0 if report["ok"] else 1
    if args.service_cmd == "status":
        return _cmd_status(args)

    from .obs.fleet import FleetAggregator

    agg = FleetAggregator.from_service_dir(args.dir)
    if args.service_cmd == "top":
        print(agg.top())
        return 0

    # service report [--format json|prom|chrome] [--check [SLO.json]]
    renders = {"json": agg.report_json, "prom": agg.prometheus,
               "chrome": agg.chrome}
    sys.stdout.write(renders[args.format]())
    if args.check is None:
        return 0
    from .obs.fleet import load_slo

    slo = load_slo(args.check) if args.check else None
    result = agg.check(slo)
    # The report itself owns stdout (scripts pipe/cmp it); verdicts
    # are operator-facing commentary, so they go to stderr.
    for violation in result["violations"]:
        print(f"SLO violation: {violation}", file=sys.stderr)
    print("SLO check: " + ("ok" if result["ok"] else
                           f"{len(result['violations'])} violation(s)"),
          file=sys.stderr)
    return 0 if result["ok"] else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    if args.chaos_cmd == "points":
        from .chaos.hooks import CRASH_POINTS, WRITE_SITES

        for site in CRASH_POINTS:
            kind = "write" if site in WRITE_SITES else "control"
            print(f"{site:<28} {kind}")
        return 0

    # chaos soak
    from .chaos.soak import run_soak
    from .chaos.spec import ChaosSpec
    from .obs.export import canonical_json

    spec = ChaosSpec.load(args.spec) if args.spec else None
    report = run_soak(args.directory, rounds=args.rounds, seed=args.seed,
                      action=args.action, p=args.p,
                      max_fires=args.max_fires, spec=spec)
    print(canonical_json(report))
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Linux vs. Lightweight Multi-kernels "
                    "for HPC' (SC '21)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and applications")

    p_exp = sub.add_parser("experiment", aliases=["experiments"],
                           help="run paper experiments")
    p_exp.add_argument("ids", nargs="+", help="experiment ids (see list)")
    p_exp.add_argument("--full", action="store_true")
    p_exp.add_argument("--seed", type=_seed, default=0)
    p_exp.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for sweep cells "
                            "(0 = one per available CPU; default 1)")
    p_exp.add_argument("--stats", action="store_true",
                       help="print executor/cache timing counters")
    p_exp.add_argument("--no-cache", action="store_true",
                       help="disable the memoized run cache")
    p_exp.add_argument("--cache-dir", metavar="DIR",
                       help="run cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-runs)")
    p_exp.add_argument("--spec", metavar="FILE",
                       help="platform spec JSON to re-target "
                            "platform-parameterised experiments at")
    p_exp.add_argument("--trace", metavar="FILE",
                       help="also record a cross-layer trace and write "
                            "it as Chrome trace JSON (output and cache "
                            "keys are unchanged)")

    p_plat = sub.add_parser("platform",
                            help="list, show or validate platform specs")
    p_plat.add_argument("action", choices=["list", "show", "validate"])
    p_plat.add_argument("name", nargs="?",
                        help="platform name (show) or spec JSON file "
                             "(validate)")

    p_run = sub.add_parser(
        "run", help="execute one run/platform spec JSON")
    p_run.add_argument("spec", help="RunSpec or PlatformSpec JSON file")
    p_run.add_argument("--app", help="application (with a platform spec)")
    p_run.add_argument("--nodes", type=int, default=1024)
    p_run.add_argument("--runs", type=int, default=3)
    p_run.add_argument("--seed", type=_seed, default=0)
    p_run.add_argument("--no-cache", action="store_true",
                       help="disable the memoized run cache")
    p_run.add_argument("--cache-dir", metavar="DIR",
                       help="run cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-runs)")

    p_cache = sub.add_parser(
        "cache", help="inspect, clear, verify or garbage-collect the "
                      "run cache")
    p_cache.add_argument("action", choices=["info", "clear", "verify",
                                            "gc"])
    p_cache.add_argument("--cache-dir", metavar="DIR",
                         help="run cache directory (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro-runs)")
    p_cache.add_argument("--max-age-days", type=float, metavar="DAYS",
                         help="gc: prune disk entries older than DAYS")
    p_cache.add_argument("--max-bytes", type=int, metavar="N",
                         help="gc: prune oldest entries until the disk "
                              "tier fits N bytes")

    p_cmp = sub.add_parser("compare", help="Linux vs McKernel for one app")
    p_cmp.add_argument("app")
    p_cmp.add_argument("--platform", default="fugaku",
                       help="registered platform name or alias "
                            "(fugaku, ofp, ...; see 'platform list')")
    p_cmp.add_argument("--nodes", type=int, default=1024)
    p_cmp.add_argument("--runs", type=int, default=3)
    p_cmp.add_argument("--seed", type=_seed, default=0)

    p_exp_out = sub.add_parser(
        "export", help="run experiments and write JSON/CSV/text outputs")
    p_exp_out.add_argument("directory")
    p_exp_out.add_argument("ids", nargs="*",
                           help="experiment ids (default: all)")
    p_exp_out.add_argument("--full", action="store_true")
    p_exp_out.add_argument("--seed", type=_seed, default=0)

    p_trace = sub.add_parser(
        "trace", help="record or summarize cross-layer traces")
    trace_sub = p_trace.add_subparsers(dest="trace_cmd", required=True)
    p_tr_run = trace_sub.add_parser(
        "run", help="run one experiment with tracing on")
    p_tr_run.add_argument("id", help="experiment id (see list)")
    p_tr_run.add_argument("--out", default="trace.json", metavar="FILE",
                          help="Chrome trace output (default trace.json; "
                               "open at https://ui.perfetto.dev)")
    p_tr_run.add_argument("--jsonl", metavar="FILE",
                          help="also write the raw event log as JSONL")
    p_tr_run.add_argument("--full", action="store_true")
    p_tr_run.add_argument("--seed", type=_seed, default=0)
    p_tr_run.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes (0 = one per CPU); the "
                               "trace bytes are identical for any value")
    p_tr_run.add_argument("--summary", action="store_true",
                          help="print the noise-attribution ranking")
    p_tr_run.add_argument("--top", type=int, default=10, metavar="N",
                          help="rows in the --summary ranking")
    p_tr_sum = trace_sub.add_parser(
        "summarize", help="rank interference actors from a JSONL log")
    p_tr_sum.add_argument("file", help="trace JSONL (from trace run "
                                       "--jsonl or experiments --trace)")
    p_tr_sum.add_argument("--top", type=int, default=10, metavar="N")

    p_metrics = sub.add_parser(
        "metrics", help="run experiments, dump Prometheus-format metrics")
    p_metrics.add_argument("ids", nargs="+", help="experiment ids")
    p_metrics.add_argument("--full", action="store_true")
    p_metrics.add_argument("--seed", type=_seed, default=0)
    p_metrics.add_argument("--jobs", type=int, default=1, metavar="N")
    p_metrics.add_argument("--no-cache", action="store_true")
    p_metrics.add_argument("--cache-dir", metavar="DIR")

    service_dir_help = ("service directory (default: $REPRO_SERVICE_DIR "
                        "or ~/.local/state/repro-service)")
    p_serve = sub.add_parser(
        "serve", help="run a job-queue worker (or worker fleet)")
    p_serve.add_argument("--dir", metavar="DIR", help=service_dir_help)
    p_serve.add_argument("--workers", type=int, default=1, metavar="N",
                         help="worker processes (N > 1 spawns a fleet "
                              "of OS processes; default 1, in-process)")
    p_serve.add_argument("--drain", action="store_true",
                         help="exit once every job is terminal instead "
                              "of serving forever")
    p_serve.add_argument("--poll", type=float, default=0.1, metavar="S",
                         help="idle poll interval, seconds (default 0.1)")
    p_serve.add_argument("--lease-ticks", type=int, default=50,
                         metavar="K",
                         help="break a lease after its heartbeat stalls "
                              "for K of this worker's polls (default 50)")
    p_serve.add_argument("--max-retries", type=int, default=3, metavar="N",
                         help="attempts per job beyond the first "
                              "(default 3)")
    p_serve.add_argument("--backoff", type=float, default=0.0,
                         metavar="S",
                         help="base backoff before re-running a failed "
                              "attempt, seconds (default 0)")
    p_serve.add_argument("--max-polls", type=int, default=None,
                         help=argparse.SUPPRESS)
    p_serve.add_argument("--chaos", metavar="FILE",
                         help="inject crashes per this ChaosSpec JSON "
                              "(propagated to every fleet worker; see "
                              "docs/CHAOS.md)")
    p_serve.add_argument("--telemetry", action="store_true",
                         help="spool lifecycle events, trace segments "
                              "and counter snapshots to telemetry/ "
                              "(read back with 'repro service top' / "
                              "'report')")

    p_svc = sub.add_parser(
        "service", help="service-directory maintenance and health "
                        "(fsck, top, report)")
    svc_sub = p_svc.add_subparsers(dest="service_cmd", required=True)
    p_verify = svc_sub.add_parser(
        "verify", help="check service-directory invariants; optionally "
                       "repair the safely repairable")
    p_verify.add_argument("--repair", action="store_true",
                          help="perform the safe repairs (quarantine "
                               "debris, heal the journal tail, re-queue "
                               "stranded jobs); never deletes anything")
    p_verify.add_argument("--dir", metavar="DIR", help=service_dir_help)
    p_svc_status = svc_sub.add_parser(
        "status", help="alias for 'repro status' (job table / one job)")
    p_svc_status.add_argument("job", nargs="?",
                              help="job id (default: all)")
    p_svc_status.add_argument("--json", action="store_true",
                              help="canonical-JSON output (byte-stable; "
                                   "for scripts)")
    p_svc_status.add_argument("--dir", metavar="DIR",
                              help=service_dir_help)
    p_top = svc_sub.add_parser(
        "top", help="one-screen fleet health console (queue, goodput, "
                    "per-worker spools)")
    p_top.add_argument("--dir", metavar="DIR", help=service_dir_help)
    p_report = svc_sub.add_parser(
        "report", help="deterministic fleet report (byte-identical for "
                       "any worker count); optionally check SLOs")
    p_report.add_argument("--format", choices=["json", "prom", "chrome"],
                          default="json",
                          help="json (canonical report), prom "
                               "(Prometheus exposition) or chrome "
                               "(trace-viewer JSON); default json")
    p_report.add_argument("--check", nargs="?", const="", default=None,
                          metavar="SLO.json",
                          help="evaluate SLO rules (default thresholds, "
                               "or the JSON rule file) and exit 1 on "
                               "violation; verdicts go to stderr")
    p_report.add_argument("--dir", metavar="DIR", help=service_dir_help)

    p_chaos = sub.add_parser(
        "chaos", help="deterministic crash injection and the soak")
    chaos_sub = p_chaos.add_subparsers(dest="chaos_cmd", required=True)
    chaos_sub.add_parser(
        "points", help="list the crash-point catalogue")
    p_soak = chaos_sub.add_parser(
        "soak", help="crash/repair/restart rounds against a golden "
                     "workload; asserts clean verify and byte-identical "
                     "artifacts")
    p_soak.add_argument("directory",
                        help="base directory for golden + round state "
                             "(each round needs a fresh subdirectory)")
    p_soak.add_argument("--rounds", type=int, default=3, metavar="N")
    p_soak.add_argument("--seed", type=_seed, default=0,
                        help="base schedule seed (round r uses seed+r)")
    p_soak.add_argument("--action", choices=["kill", "torn-write",
                                             "io-error"],
                        default="kill",
                        help="action at every applicable crash point "
                             "(default kill)")
    p_soak.add_argument("--p", type=float, default=1.0,
                        help="per-evaluation fire probability")
    p_soak.add_argument("--max-fires", type=int, default=1,
                        help="fires per site per round (default 1)")
    p_soak.add_argument("--spec", metavar="FILE",
                        help="full ChaosSpec JSON (overrides --action/"
                             "--p/--max-fires)")

    p_submit = sub.add_parser(
        "submit", help="submit a run/sweep/experiment job to the queue")
    p_submit.add_argument("spec", nargs="?",
                          help="RunSpec/JobSpec JSON file (or a JSON "
                               "list of RunSpecs for a sweep)")
    p_submit.add_argument("--experiment", metavar="ID",
                          help="submit a registered experiment instead "
                               "of a spec file")
    p_submit.add_argument("--full", action="store_true",
                          help="experiment jobs: paper-scale layout")
    p_submit.add_argument("--seed", type=_seed, default=0)
    p_submit.add_argument("--dir", metavar="DIR", help=service_dir_help)

    p_status = sub.add_parser(
        "status", help="show the job table, or one job's state")
    p_status.add_argument("job", nargs="?", help="job id (default: all)")
    p_status.add_argument("--json", action="store_true",
                          help="canonical-JSON output (byte-stable; "
                               "for scripts)")
    p_status.add_argument("--dir", metavar="DIR", help=service_dir_help)

    p_fetch = sub.add_parser(
        "fetch", help="list or copy a finished job's artifacts")
    p_fetch.add_argument("job", help="job id")
    p_fetch.add_argument("--out", metavar="DIR",
                         help="copy artifacts here (default: just list "
                              "their paths)")
    p_fetch.add_argument("--dir", metavar="DIR", help=service_dir_help)

    p_fwq = sub.add_parser("fwq", help="run the FWQ noise benchmark")
    p_fwq.add_argument("--platform", choices=["fugaku", "ofp"],
                       default="fugaku")
    p_fwq.add_argument("--os", choices=["linux", "mckernel"],
                       default="linux")
    p_fwq.add_argument("--tuning", choices=["production", "untuned"],
                       default="production")
    p_fwq.add_argument("--duration", type=float, default=60.0)
    p_fwq.add_argument("--seed", type=_seed, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "experiment": _cmd_experiment,
        "experiments": _cmd_experiment,
        "platform": _cmd_platform,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "export": _cmd_export,
        "fwq": _cmd_fwq,
        "cache": _cmd_cache,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "fetch": _cmd_fetch,
        "service": _cmd_service,
        "chaos": _cmd_chaos,
    }[args.command]
    from .errors import ReproError

    try:
        code = handler(args)
        sys.stdout.flush()
        return code
    except ReproError as exc:
        # Library failures are user-facing diagnostics, not tracebacks.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed the pipe (``repro ... | head``): stop
        # quietly.  Point stdout at devnull so the interpreter's
        # exit-time flush of what is still buffered cannot raise again.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
