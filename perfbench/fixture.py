"""Seeded inputs for the benchmark workloads, and the linear-time
journal-ops fixture.

Everything here is a pure function of the seed: the same seed gives the
same job list, the same service directory bytes and the same export
tree.  The program under test only ever sees the generated inputs.
"""

from __future__ import annotations

import pathlib
import random

from repro.engine import ExecutionEngine
from repro.obs.export import canonical_json
from repro.perf.cache import RunCache, result_to_dict
from repro.platform import RunSpec, get_platform
from repro.service import JobQueue, JobSpec, job_id_for

#: The job-spec space: 4 platforms x 6 apps x node counts x spec seeds.
PLATFORMS = ("ofp-default", "ofp-mckernel", "fugaku-production",
             "fugaku-mckernel")
APPS = ("AMG2013", "Milc", "Lulesh", "LQCD", "GeoFEM", "GAMERA")
#: Node counts of the four pool slots of each (platform, app).  The
#: slots, not the seed, fix what the pool costs to simulate, so every
#: seed draws a different pool of the same cost.
SLOT_NODES = (64, 256, 1024, 1024)
SPEC_SEEDS = (0, 1, 2, 3)
#: Distinct specs a workload draws its jobs from (4 per platform/app).
POOL_SIZE = len(PLATFORMS) * len(APPS) * len(SLOT_NODES)
N_RUNS = 2
#: The drain worker's id, shared by the real drain and the fixture.
WORKER_ID = "bench"


def run_spec(platform: str, app: str, n_nodes: int, seed: int) -> RunSpec:
    return RunSpec(platform=get_platform(platform), app=app,
                   n_nodes=n_nodes, n_runs=N_RUNS, seed=seed)


def job_specs(seed: int, k: int) -> list[JobSpec]:
    """``k`` single-cell ``run`` jobs over a seeded pool of
    :data:`POOL_SIZE` distinct specs, in seeded order.

    Every pool spec is submitted at least once and the rest of the
    ``k`` jobs repeat pool specs, so exactly ``POOL_SIZE`` jobs miss the
    run cache and ``k - POOL_SIZE`` hit it (about two thirds at
    ``k = 300``), whatever the seed.
    """
    if k < POOL_SIZE:
        raise ValueError(f"need at least {POOL_SIZE} jobs, got {k}")
    rng = random.Random(seed)
    pool = []
    for platform in PLATFORMS:
        for app in APPS:
            seeds = rng.sample(SPEC_SEEDS, len(SLOT_NODES))
            pool += [JobSpec.for_specs([run_spec(platform, app, n, s)])
                     for n, s in zip(SLOT_NODES, seeds)]
    jobs = pool * (k // POOL_SIZE) + rng.sample(pool, k % POOL_SIZE)
    rng.shuffle(jobs)
    return jobs


def warmup_specs() -> list[JobSpec]:
    """One small job per (platform, app): touches every platform build
    and app profile the timed drains use."""
    return [JobSpec.for_specs([run_spec(p, a, SLOT_NODES[0], 0)])
            for p in PLATFORMS for a in APPS]


def results_bytes(jobspec: JobSpec, results: list) -> bytes:
    """A run job's ``results.json`` exactly as the worker publishes it."""
    payload = {"jobspec": jobspec.to_dict(),
               "results": [result_to_dict(r) for r in results]}
    return (canonical_json(payload) + "\n").encode()


def build_drained_dir(directory: pathlib.Path,
                      jobspecs: list[JobSpec]) -> JobQueue:
    """Write the service directory a single worker ``bench`` leaves
    after draining ``jobspecs`` submitted in order, in time linear in
    the number of jobs.

    A real drain re-folds the journal on every submit and claim, which
    is quadratic.  This writes the same bytes directly: submission
    artifacts under their deterministic ids, journal records in drain
    order (all submits, then claim/run/done per job in id order), one
    cache entry per distinct spec, and each job's ``results.json``.
    ``test_fixture.py`` checks the result against a real drain.
    """
    queue = JobQueue(directory, durable=False)
    journal = queue.journal
    ids = []
    for seq, jobspec in enumerate(jobspecs):
        job_id = job_id_for(seq, jobspec)
        ids.append(job_id)
        (queue.jobs_dir / f"{job_id}.json").write_text(
            jobspec.canonical_json() + "\n")
    for job_id, jobspec in zip(ids, jobspecs):
        journal.append({"type": "submit", "job": job_id,
                        "kind": jobspec.kind})
    distinct = {js.canonical_json(): js for js in jobspecs}
    engine = ExecutionEngine.from_options(
        cache=RunCache(queue.cache_dir, durable=False))
    results = engine.run_specs([js.specs[0] for js in distinct.values()])
    published = {key: results_bytes(js, [r]) for (key, js), r
                 in zip(distinct.items(), results)}
    for job_id, jobspec in zip(ids, jobspecs):
        for rtype in ("claim", "run", "done"):
            journal.append({"type": rtype, "job": job_id,
                            "worker": WORKER_ID, "attempt": 0})
        out = queue.result_dir(job_id)
        out.mkdir()
        (out / "results.json").write_bytes(
            published[jobspec.canonical_json()])
    return queue
