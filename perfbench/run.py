"""End-to-end and per-layer benchmark of the momentcert command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/. One process, one client, one job at a time (closed loop): each job
calls momentcert.cli.main(argv) in-process, the path a user runs, and is
checked outside the timed region. Jobs start until S seconds of wall
time have passed. Throughput is taken at the job stream's fixed block
mix, so the part of a block a run ends in does not move it.

--trace 0 reports the end-to-end metrics: completed jobs per second of
job time (from per-class median job times at the block mix) and the
median job time,
both calibrated by the reference computation of reference.py, timed
between jobs, to the speed where it takes reference.NOMINAL_S; set-up
time, calibrated the same way, and peak resident memory. The uncalibrated figures are printed
above the result line.
--trace 1 runs every job twice, untraced and then with the layer
wrappers of layers.py patched in, checks that both runs write the same
bytes, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import reference
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Jobs drawn during set-up, at least what one 30 second run of the
# parent commit completes; further jobs are drawn between jobs.
PREDRAW = {"knapsack": 128, "schedule": 16, "adf": 128, "mkp": 512}
SETUP_REPS = 7

# The reference runs REF_EDGE times before the set-ups, after each
# set-up, REF_EDGE times before the first job and after the last one,
# and between jobs until it last ran less than REF_EVERY_S ago
# and has taken at least REF_SHARE of the job time so far, so every job
# is bracketed by reference runs and a long job by several. A job's speed
# is the median of the reference times within REF_WINDOW_S of its span.
REF_EVERY_S = 0.3
REF_SHARE = 0.1
REF_WINDOW_S = 1.5
REF_EDGE = 3


def import_momentcert():
    """Import the package afresh from this checkout's src/; returns its cli module."""
    for name in [n for n in sys.modules if n == "momentcert" or n.startswith("momentcert.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import momentcert.cli

    found = os.path.realpath(os.path.dirname(momentcert.__file__))
    if found != os.path.realpath(os.path.join(SRC, "momentcert")):
        raise ImportError(f"momentcert was imported from {found}, not from {SRC}")
    return momentcert.cli


def run_job(cli, job) -> tuple[list[int], list[bytes], float]:
    """Run a job's steps in the current directory; returns exits, artifacts, seconds."""
    for name, payload in job.inputs.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    for step in job.steps:
        with contextlib.suppress(FileNotFoundError):
            os.remove(step.out)
    codes, elapsed = [], 0.0
    for step in job.steps:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            started = time.perf_counter()
            code = cli.main(step.argv)
            elapsed += time.perf_counter() - started
        codes.append(code)
    artifacts = []
    for step in job.steps:
        with open(step.out, "rb") as fh:
            artifacts.append(fh.read())
    return codes, artifacts, elapsed


def run_checked(cli, job) -> tuple[list[int], list[bytes], float]:
    """run_job, then the correctness gate; raises checks.CheckError on a bad job."""
    import checks  # imports momentcert, so only after import_momentcert()

    codes, artifacts, elapsed = run_job(cli, job)
    checks.check_job(job, codes, artifacts)
    return codes, artifacts, elapsed


def p90_with_tail(values: list[float]) -> tuple[float, int]:
    """The 90th percentile and how many samples lie above it."""
    cut = statistics.quantiles(values, n=10, method="inclusive")[8]
    return cut, sum(1 for v in values if v > cut)


def local_speed(refs: list[tuple[float, float]], start: float, end: float) -> float:
    """Median time of the reference runs around the span [start, end].

    refs holds (midpoint, seconds) of each reference run.
    """
    return statistics.median(
        d for m, d in refs if start - REF_WINDOW_S <= m <= end + REF_WINDOW_S
    )


def throughput(durations: dict[str, list[float]], mix: dict[str, int]) -> float:
    """Jobs per second of the class mix at each class's median job time.

    mix gives each class's jobs per block; classes the run did not reach
    are left out. A mean over all jobs moves by up to a tenth when a few
    jobs stall on a busy machine.
    """
    jobs = sum(mix[cls] for cls in durations)
    busy = sum(mix[cls] * statistics.median(ds) for cls, ds in durations.items())
    return jobs / busy if jobs else 0.0


def all_times(durations: dict[str, list[float]]) -> list[float]:
    return [d for ds in durations.values() for d in ds]


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    errors: list[str] = []
    refs: list[tuple[float, float]] = []
    ref_s = job_s = 0.0

    def time_reference() -> None:
        nonlocal ref_s
        t = time.perf_counter()
        reference.run_once()
        d = time.perf_counter() - t
        refs.append((t + d / 2, d))
        ref_s += d

    # Set-up, SETUP_REPS times: import momentcert afresh, draw the first
    # jobs from the seeded stream and run the warm-up jobs. Checks are not
    # timed and keep the first import; the last one serves the run. Each
    # is calibrated like a job, between reference runs.
    setup_times, setup_wall = [], []
    reference.run_once()
    for _ in range(REF_EDGE):
        time_reference()
    for _ in range(SETUP_REPS):
        started = time.perf_counter()
        cli = import_momentcert()
        stream = workloads.jobs(workload, seed)
        drawn = [next(stream) for _ in range(PREDRAW[workload])]
        spent = time.perf_counter() - started
        for job in workloads.warmup_jobs(workload):
            try:
                spent += run_checked(cli, job)[2]
            except Exception as exc:  # the run reports it as incorrect
                errors.append(f"warm-up {job.cls}: {type(exc).__name__}: {exc}")
        time_reference()
        setup_wall.append(spent)
        setup_times.append(spent * reference.NOMINAL_S / local_speed(refs, started, started + spent))
    setup_s = statistics.median(setup_times)

    import checks
    import layers
    from tracer import Tracer

    tracer = Tracer(layers.TARGETS)
    pending = iter(drawn)
    durations: dict[str, list[float]] = {}
    starts: dict[str, list[float]] = {}
    attempted = failed = 0
    traced_s = untraced_s = 0.0
    ref_s = 0.0
    started = time.perf_counter()
    if not trace:
        for _ in range(REF_EDGE):
            time_reference()
    while time.perf_counter() - started < seconds:
        job = next(pending, None) or next(stream)
        attempted += 1
        while not trace and (time.perf_counter() - refs[-1][0] >= REF_EVERY_S
                             or ref_s < REF_SHARE * job_s):
            time_reference()
        try:
            job_start = time.perf_counter()
            codes, artifacts, elapsed = run_checked(cli, job)
            if trace:
                with tracer.active(attempted):
                    traced = run_job(cli, job)
                if traced[:2] != (codes, artifacts):
                    raise checks.CheckError("traced run wrote different artifacts")
                tracer.counters["cli.artifact_bytes"] += sum(len(a) for a in artifacts)
                untraced_s += elapsed
                traced_s += traced[2]
        except Exception as exc:  # an exception is a failed job, never a crash
            failed += 1
            errors.append(f"job {attempted} {job.cls}: {type(exc).__name__}: {exc}")
            continue
        durations.setdefault(job.cls, []).append(elapsed)
        starts.setdefault(job.cls, []).append(job_start)
        job_s += elapsed

    times = all_times(durations)
    raw: dict[str, tuple[float, str]] = {}
    if trace:
        missing = sorted(k for k in layers.EXERCISED[workload] if not tracer.fired[k])
        if missing:
            errors.append("wrappers that never fired: " + ", ".join(missing))
        metrics = layers.per_layer_metrics(tracer, len(times), traced_s, untraced_s)
    else:
        for _ in range(REF_EDGE):
            time_reference()
        calibrated = {
            cls: [d * reference.NOMINAL_S / local_speed(refs, t, t + d)
                  for d, t in zip(ds, starts[cls])]
            for cls, ds in durations.items()
        }
        mix = workloads.block_mix(workload)
        raw = {
            "jobs_per_s": (throughput(durations, mix), "1/s"),
            "job_s.p50": (statistics.median(times) if times else 0.0, "s"),
            "setup_s": (statistics.median(setup_wall), "s"),
            "reference_s.p50": (statistics.median(d for _, d in refs), "s"),
        }
        metrics = {
            "jobs_per_s.cal": (throughput(calibrated, mix), "1/s"),
            "job_s.p50.cal": (statistics.median(all_times(calibrated)) if times else 0.0, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    return {
        "workload": workload,
        "seed": seed,
        "durations": durations,
        "raw": raw,
        "errors": errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def report(res: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    times = all_times(res["durations"])
    mix = ", ".join(f"{cls}: {len(ds)}" for cls, ds in sorted(res["durations"].items()))
    print(f"workload {res['workload']} seed {res['seed']}: {len(times)} jobs ({mix})")
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for name, (value, unit) in res["raw"].items():
        print(f"  {name + ' (wall clock)':40s} {value:14.6g} {unit}")
    if len(times) >= 2:
        p90, beyond = p90_with_tail(times)
        if beyond >= 10:
            print(f"  {'job_s.p90':40s} {p90:14.6g} s ({beyond} jobs beyond it)")
    print(f"  {'fail_frac':40s} {res['failed'] / max(res['attempted'], 1):14.6g} "
          f"({res['failed']} of {res['attempted']})")
    for cls, ds in sorted(res["durations"].items()):
        print(f"  class {cls:34s} p50 {statistics.median(ds):.6g} s over {len(ds)} jobs")
    for err in res["errors"]:
        print(f"  error: {err}")
    return {
        "correct": not res["errors"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BLOCK))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "momentcert", "cli.py")):
        print(f"error: no momentcert sources under {SRC}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        res = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report(res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
