"""Short traced benchmark runs, one per workload, held to the benchmark's gates.

perfbench/run.py refuses a run when a job fails its correctness check
(perfbench/checks.py) or when a layer wrapper its workload must exercise
never fired (perfbench/layers.EXERCISED). Each case runs it as a user
does, from the checkout root, and requires a correct run with no failed
job.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["knapsack", "schedule", "adf", "mkp"])
def test_traced_benchmark_run_is_correct(workload):
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1"]
    proc = subprocess.run(
        [sys.executable, *argv, "--seconds", "2", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    lines = proc.stdout.splitlines()
    errors = [line for line in lines if line.lstrip().startswith("error:")]
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, "\n".join(errors)
