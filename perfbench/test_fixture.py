"""Self-test of the journal-ops fixture.

    PYTHONPATH=src python -m pytest perfbench -q

The linear-time fixture build must write exactly what a real drain writes,
and its full-size directory must verify clean.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import fixture  # noqa: E402
from repro.service import JobQueue, Worker, verify_service  # noqa: E402
from workloads import JournalOps  # noqa: E402


def test_fixture_is_byte_identical_to_a_real_drain(tmp_path):
    # 20 jobs of a seeded mix; three of them repeat an earlier spec
    # and are run-cache hits.
    jobspecs = fixture.job_specs(seed=3, k=300)[:20]
    assert len({j.canonical_json() for j in jobspecs}) == 17
    drained = tmp_path / "drained"
    queue = JobQueue(drained)
    for jobspec in jobspecs:
        queue.submit(jobspec)
    summary = Worker(queue, worker_id=fixture.WORKER_ID, drain=True).run()
    assert summary["executed"] == len(jobspecs)

    built = tmp_path / "built"
    fixture.build_drained_dir(built, jobspecs)
    diff = subprocess.run(["diff", "-r", str(drained), str(built)],
                          capture_output=True, text=True)
    assert diff.returncode == 0, diff.stdout + diff.stderr


def test_full_size_fixture_verifies_clean(tmp_path):
    queue = fixture.build_drained_dir(
        tmp_path, fixture.job_specs(seed=0, k=JournalOps.JOBS))
    assert len(queue.journal.records()) == 4 * JournalOps.JOBS
    report = verify_service(tmp_path)
    assert report["clean"], report["violations"][:5]


def test_job_mix_is_seeded_with_a_seed_invariant_cache_miss_shape():
    def shape(jobs):
        distinct = {j.canonical_json(): j.specs[0] for j in jobs}
        return sorted((s.platform.name, s.app, s.n_nodes)
                      for s in distinct.values())

    a = fixture.job_specs(seed=1, k=300)
    b = fixture.job_specs(seed=2, k=300)
    assert [j.canonical_json() for j in a] == \
        [j.canonical_json() for j in fixture.job_specs(seed=1, k=300)]
    assert [j.canonical_json() for j in a] != [j.canonical_json() for j in b]
    assert len(shape(a)) == fixture.POOL_SIZE
    assert shape(a) == shape(b)
