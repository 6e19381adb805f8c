"""Byte-identity hashes of the benchmark jobs' exit codes and artifacts.

    python3 tools/artifact_hashes.py

Run from the root of a source checkout. For each workload the first
jobs of perfbench's seed-11 stream run in-process, one at a time, in a
temporary directory; every step feeds "<exit code>\\n" and then the bytes
of its artifact into one sha256 per workload. A change that promises
unchanged artifacts prints the same four lines at the parent and at the
change.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 11
JOBS = {"knapsack": 8, "schedule": 4, "adf": 16, "mkp": 28}


def workload_hash(cli, workload: str) -> str:
    digest = hashlib.sha256()
    for job in itertools.islice(workloads.jobs(workload, SEED), JOBS[workload]):
        codes, artifacts, _ = run.run_job(cli, job)
        for code, artifact in zip(codes, artifacts):
            digest.update(f"{code}\n".encode())
            digest.update(artifact)
    return digest.hexdigest()


def main() -> int:
    cli = run.import_momentcert()
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for workload in JOBS:
                print(f"{workload} {workload_hash(cli, workload)}", flush=True)
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
