"""Correctness gate for one finished job.

Checks run outside the timed region. Exit codes must match the
expectation each job carries; every NotPSD witness in an artifact must
give a negative quadratic value on a matrix or form rebuilt here: the
adf moment matrix straight from the input moments, the gap matrices
through momentcert's public functions, with the entries of raw moment
matrices summed by this module's own loop.
"""

from __future__ import annotations

import json
from fractions import Fraction

import momentcert as mc
from workloads import SCHEDULE_MIN_P, Job, label_mask


class CheckError(Exception):
    """A job's outputs disagree with what its construction guarantees."""


def _witness(cert: dict) -> list[Fraction]:
    return [Fraction(v) for v in cert["witness"]]


def _require_negative(value: Fraction, what: str) -> None:
    if not value < 0:
        raise CheckError(f"witness for {what} gives {float(value):.6g}, not negative")


def _witnessed(report: dict) -> list[dict]:
    """Certificates that carry a witness; each must also say NotPSD."""
    out = []
    for cert in report["certificates"]:
        if cert["verdict"] == "NotPSD":
            if "witness" not in cert:
                raise CheckError(f"NotPSD certificate {cert['target']} has no witness")
            out.append(cert)
        elif "witness" in cert:
            raise CheckError(f"{cert['verdict']} certificate {cert['target']} has a witness")
    return out


def _check_knapsack(job: Job, report: dict) -> None:
    if not report["feasible"] or _witnessed(report):
        raise CheckError("knapsack with k >= 1 must be feasible with no witness")


def _moment_rows(zp: mc.LatticeVector, t: int) -> list[list[Fraction]]:
    """M_t of the superset sums of a sparse pseudo-probability vector."""
    index = mc.enumerate_subsets(zp.n, t)
    nonzero = list(zp.items())
    return [
        [sum((v for m, v in nonzero if (a.bits | b.bits) & ~m == 0), Fraction(0)) for b in index]
        for a in index
    ]


def _check_schedule(job: Job, report: dict) -> None:
    n, k, P = job.params["n"], job.params["k"], job.params["P"]
    if P is None:
        if report["instance"]["params"]["P"] != str(SCHEDULE_MIN_P[(n, k)]):
            raise CheckError(f"find-min-p gave P={report['instance']['params']['P']}")
        P = SCHEDULE_MIN_P[(n, k)]
    witnessed = _witnessed(report)
    if report["feasible"] != (not witnessed):
        raise CheckError("feasibility disagrees with the witnesses")
    if P < SCHEDULE_MIN_P[(n, k)] and not witnessed:
        raise CheckError(f"P={P} is below the threshold but nothing is NotPSD")
    instance = mc.build_schedule(n, k, P)
    p = mc.schedule_solution(instance)
    for cert in witnessed:
        target = cert["target"]
        if not target.startswith("covering-"):
            raise CheckError(f"{target} must be PSD for every P")
        level = int(target.split("-")[1])
        zp = mc.constraint_diagonal(instance.covering_constraint(level), p)
        rows = _moment_rows(zp, instance.level_cap - 1)
        _require_negative(mc.quad_eval(rows, _witness(cert)), target)


def _check_mkp(job: Job, report: dict) -> None:
    prm = job.params
    instance = mc.build_mkp(prm["blocks"], prm["items_per_block"], prm["eps"], prm["T"])
    p = mc.mkp_uniform_solution(instance, prm["level"])
    witnessed = _witnessed(report)
    if report["feasible"] != (not witnessed):
        raise CheckError("feasibility disagrees with the witnesses")
    for cert in witnessed:
        target = cert["target"]
        if not target.startswith("demand-"):
            raise CheckError(f"{target} must be PSD for every eps")
        block = int(target.split("-")[1])
        zp = mc.constraint_diagonal(instance.demand_constraint(block), p)
        form = mc.from_pseudo(zp, prm["level"])
        _require_negative(mc.quadratic_form(form, _witness(cert)), target)


def _check_replay(job: Job, payload: dict) -> None:
    if payload["matches"] is not True or payload["eps"] != str(job.params["eps"]):
        raise CheckError("replay did not match its stage goldens")


def _check_adf(job: Job, cert: dict) -> None:
    """The witness v is in form coordinates; M_t(w) = A F A^T with A the
    inclusion matrix on P_t, so v^T F v = u^T M_t(w) u for
    u_J = sum over I inside J of (-1)^(|J|-|I|) v_I. M_t(w) is read straight
    from the input moments, with no momentcert code involved.
    """
    if job.params["perturbed"] is None:
        if cert["verdict"] != "PSD" or cert["method"] != "gershgorin-recipe" or cert["schedule"]:
            raise CheckError("a measure's form must settle by disks with no pivot")
        return
    if cert["verdict"] != "NotPSD":
        raise CheckError(f"perturbed moments certified {cert['verdict']}")
    w = {label_mask(s): Fraction(v) for s, v in job.inputs["moments.json"]["values"].items()}
    low = sorted((m for m in w if m.bit_count() <= job.params["level"]),
                 key=lambda m: (m.bit_count(), m))
    v = _witness(cert)
    u = [
        sum((-vi if (J ^ I).bit_count() & 1 else vi for I, vi in zip(low, v) if I & ~J == 0),
            Fraction(0))
        for J in low
    ]
    value = sum((ua * ub * w[a | b] for a, ua in zip(low, u) if ua for b, ub in zip(low, u) if ub),
                Fraction(0))
    _require_negative(value, "perturbed moments")


_CHECKS = {
    "knapsack": _check_knapsack,
    "schedule": _check_schedule,
    "mkp": _check_mkp,
    "replay": _check_replay,
    "adf": _check_adf,
}


def check_job(job: Job, codes: list[int], artifacts: list[bytes]) -> None:
    """Raise CheckError unless every step's exit and artifact is as constructed.

    The kind's check reads the last step's artifact: a gap report, a
    replay result or a certificate.
    """
    for step, code in zip(job.steps, codes, strict=True):
        if code != step.expect:
            raise CheckError(f"{' '.join(step.argv)} exited {code}, expected {step.expect}")
    _CHECKS[job.kind](job, json.loads(artifacts[-1]))
