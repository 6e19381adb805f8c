"""Seeded job generators for the four benchmark workloads.

This module does not import momentcert: inputs, including the moment
vectors of the adf workload, are built here with plain integer
arithmetic, so set-up time does not move when the library changes.

A job is one user action: a list of CLI steps run one after another,
each with the exit code it must return. Every generator is an infinite
iterator driven by one random.Random(seed); jobs come in blocks (four
jobs, eight for adf, seven for mkp) whose class mix is fixed, so the share of each job
class is the same on every seed and only the parameters and the order
inside a block vary.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

# Workload name -> jobs per block of its stream.
BLOCK = {"knapsack": 4, "schedule": 4, "adf": 8, "mkp": 7}

# Smallest feasible integer weight base for gap schedule, by (n, k). The
# (4, 2) value is the one tests/test_gaps.py pins; (2, 1) serves warm-up.
SCHEDULE_MIN_P = {(4, 2): 14, (2, 1): 6}

ADF_LEVEL = 2


@dataclass
class Step:
    """One CLI call: its argv (output path included) and the exit it must give."""

    argv: list[str]
    expect: int
    out: str


@dataclass
class Job:
    """One user action of a kind (the CLI command or gap family) and a class.

    inputs maps file names to JSON payloads written before the steps run.
    """

    kind: str
    cls: str
    steps: list[Step]
    params: dict
    inputs: dict = field(default_factory=dict)


def _ratio(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def subset_label(mask: int, n: int) -> str:
    return "{" + ",".join(str(i + 1) for i in range(n) if mask >> i & 1) + "}"


def label_mask(label: str) -> int:
    """Inverse of subset_label."""
    inner = label.strip("{}")
    return sum(1 << (int(i) - 1) for i in inner.split(",")) if inner else 0


# ---------------------------------------------------------------------------
# single jobs
# ---------------------------------------------------------------------------


def knapsack_job(n: int, k: Fraction) -> Job:
    argv = ["gap", "knapsack", "--n", str(n), "--k", _ratio(k), "--out", "report.json"]
    return Job("knapsack", f"n{n}", [Step(argv, 0, "report.json")], {"n": n, "k": k})


def schedule_job(n: int, k: int, P: int | None) -> Job:
    """Exit 0 if and only if P reaches SCHEDULE_MIN_P; P=None asks for --find-min-p."""
    argv = ["gap", "schedule", "--n", str(n), "--k", str(k)]
    if P is None:
        argv.append("--find-min-p")
        cls, expect = "find-min-p", 0
    else:
        argv += ["--P", str(P)]
        feasible = P >= SCHEDULE_MIN_P[(n, k)]
        cls, expect = ("feasible", 0) if feasible else ("infeasible", 1)
    argv += ["--out", "report.json"]
    return Job("schedule", cls, [Step(argv, expect, "report.json")], {"n": n, "k": k, "P": P})


def mkp_job(blocks: int, per_block: int, T: int, eps: Fraction) -> Job:
    """Feasible when eps <= 1/16, infeasible when eps >= 1/8 (level 1).

    The class names the verdict too: a feasible job of a size takes about
    1.4 times as long as an infeasible one, and a class's median must
    fall inside one of them.
    """
    if eps <= Fraction(1, 16):
        expect, verdict = 0, "feasible"
    elif eps >= Fraction(1, 8):
        expect, verdict = 1, "infeasible"
    else:
        raise ValueError(f"eps {eps} has no fixed expectation")
    argv = [
        "gap", "mkp", "--eps", _ratio(eps), "--T", str(T),
        "--blocks", str(blocks), "--items-per-block", str(per_block),
        "--level", "1", "--out", "report.json",
    ]
    params = {"blocks": blocks, "items_per_block": per_block, "T": T, "eps": eps, "level": 1}
    cls = f"mkp{blocks}x{per_block}-{verdict}"
    return Job("mkp", cls, [Step(argv, expect, "report.json")], params)


def replay_job(eps: Fraction) -> Job:
    argv = ["replay", "--eps", _ratio(eps), "--out", "replay.json"]
    return Job("replay", "replay", [Step(argv, 0, "replay.json")], {"eps": eps})


def superset_sums(values: list[int], n: int) -> list[int]:
    """y_I = sum of values_S over S containing I, in O(n 2^n)."""
    out = list(values)
    for b in range(n):
        bit = 1 << b
        for mask in range(1 << n):
            if not mask & bit:
                out[mask] += out[mask | bit]
    return out


def measure_moments(rng: random.Random, n: int) -> tuple[list[int], int]:
    """Moments of a random probability measure on {0,1}^n, as numerators over a total.

    Point weights are integers in 0..9; the measure is their normalisation,
    so its moment vector is PSD at every level.
    """
    weights = [rng.randint(0, 9) for _ in range(1 << n)]
    weights[rng.randrange(1 << n)] += 1
    return superset_sums(weights, n), sum(weights)


def adf_job(rng: random.Random, n: int, perturb: bool) -> Job:
    """decompose then certify --adf on one moment vector.

    A perturbed vector has one singleton moment w_I made negative, so
    M_t(w) has a negative diagonal entry and must be NotPSD. |I| is fixed
    because it sets the job's cost: with |I| = 1 the oracle eliminates
    for a while before it meets the negative direction and builds the
    witness from its basis (about 0.5 s of a 1.4 s job at n=9), while
    with |I| = 2 the assembled form shows a negative diagonal at once.
    """
    numer, total = measure_moments(rng, n)
    perturbed = None
    if perturb:
        low = [m for m in range(1 << n) if m.bit_count() == 1]
        perturbed = rng.choice(low)
        numer[perturbed] = -rng.randint(1, 9)
    values = {subset_label(m, n): _ratio(Fraction(v, total)) for m, v in enumerate(numer)}
    steps = [
        Step(["decompose", "--input", "moments.json", "--level", str(ADF_LEVEL),
              "--out", "form.json"], 0, "form.json"),
        Step(["certify", "--adf", "form.json", "--out", "cert.json"],
             1 if perturb else 0, "cert.json"),
    ]
    cls = f"n{n}-" + ("perturbed" if perturb else "measure")
    params = {"n": n, "level": ADF_LEVEL, "perturbed": perturbed}
    return Job("adf", cls, steps, params, {"moments.json": {"n": n, "values": values}})


# ---------------------------------------------------------------------------
# seeded streams
# ---------------------------------------------------------------------------


def _fraction_in(rng: random.Random, lo: Fraction, hi: Fraction, max_den: int) -> Fraction:
    """A rational in [lo, hi] with denominator at most max_den; needs hi - lo >= 1/max_den."""
    while True:
        den = rng.randint(1, max_den)
        num = rng.randint(int(lo * den) - 1, int(hi * den) + 1)
        q = Fraction(num, den)
        if lo <= q <= hi:
            return q


def _knapsack_stream(rng: random.Random) -> Iterator[Job]:
    while True:
        ns = [5, 5, 5, 6]
        rng.shuffle(ns)
        for n in ns:
            yield knapsack_job(n, _fraction_in(rng, Fraction(1), Fraction(4), 8))


def _schedule_stream(rng: random.Random) -> Iterator[Job]:
    pmin = SCHEDULE_MIN_P[(4, 2)]
    while True:
        ps = [rng.randint(6, pmin - 1), rng.randint(pmin, 30), rng.randint(pmin, 30), None]
        rng.shuffle(ps)
        for P in ps:
            yield schedule_job(4, 2, P)


def _adf_stream(rng: random.Random) -> Iterator[Job]:
    while True:
        kinds = [(n, i == 0) for n in (8, 9) for i in range(4)]
        rng.shuffle(kinds)
        for n, perturb in kinds:
            yield adf_job(rng, n, perturb)


def _feasible_eps(rng: random.Random) -> Fraction:
    return _fraction_in(rng, Fraction(1, 1024), Fraction(1, 16), 1024)


def _infeasible_eps(rng: random.Random) -> Fraction:
    return _fraction_in(rng, Fraction(1, 8), Fraction(15, 16), 64)


def _mkp_stream(rng: random.Random) -> Iterator[Job]:
    # Three replays per block put the median job inside the 3x2
    # infeasible class (the 4th of 7 by time), not between two classes.
    while True:
        jobs = [
            mkp_job(3, 2, 2, _feasible_eps(rng)),
            mkp_job(3, 2, 2, _infeasible_eps(rng)),
            mkp_job(4, 3, 3, _feasible_eps(rng)),
            mkp_job(4, 3, 3, _infeasible_eps(rng)),
            *(replay_job(_fraction_in(rng, Fraction(1, 64), Fraction(63, 64), 64))
              for _ in range(3)),
        ]
        rng.shuffle(jobs)
        yield from jobs


_STREAMS: dict[str, Callable[[random.Random], Iterator[Job]]] = {
    "knapsack": _knapsack_stream,
    "schedule": _schedule_stream,
    "adf": _adf_stream,
    "mkp": _mkp_stream,
}


def jobs(workload: str, seed: int) -> Iterator[Job]:
    """The workload's infinite job stream; the same seed gives the same jobs."""
    return _STREAMS[workload](random.Random(f"{workload}:{seed}"))


def block_mix(workload: str) -> dict[str, int]:
    """Jobs of each class in one block; every block of every seed has this mix."""
    mix: dict[str, int] = {}
    for job in itertools.islice(jobs(workload, 0), BLOCK[workload]):
        mix[job.cls] = mix.get(job.cls, 0) + 1
    return mix


def warmup_jobs(workload: str) -> list[Job]:
    """Small fixed jobs through the same CLI commands, run before timing."""
    if workload == "knapsack":
        return [knapsack_job(3, Fraction(1))]
    if workload == "schedule":
        return [schedule_job(2, 1, 10)]
    if workload == "adf":
        return [adf_job(random.Random(0), 4, False)]
    return [mkp_job(3, 2, 2, Fraction(1, 16)), replay_job(Fraction(1, 16))]
