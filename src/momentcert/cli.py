"""Command-line front end: decompose, certify, gap, replay.

Every command reads and writes JSON with sorted keys and UTF-8 text, so
a rerun on identical inputs produces byte-identical artifact files. The
one-line run report printed to stdout carries the wall-clock timing and
is the only place timing appears; certificate and report payloads stay
deterministic.

Exit codes partition the outcomes:

    0  success (certified PSD, feasible instance, goldens matched)
    1  definite negative (NotPSD witness, infeasible, disks unsettled
       in disks-only mode, golden mismatch)
    2  input parse failure
    3  invalid argument (level out of range, bad pivot, bad parameters)
    4  the pivot recipe stayed inconclusive and the exact oracle had to
       decide; the verdict in the certificate is the oracle's

certify --gershgorin-only reads the disks once and stops, for a raw
matrix (--matrix) and for an almost-diagonal form (--adf, assembled
first) alike: PSD when every disk passes, Inconclusive (exit 1)
otherwise. It never pivots and never calls the oracle.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import Sequence, Union

from .adf import AdfError, AlmostDiagonalForm, assemble, from_pseudo
from .certify import (
    CertifyError,
    PsdCertificate,
    certify_matrix,
    certify_recipe,
    gershgorin,
)
from .gaps import (
    GapError,
    build_mkp,
    build_schedule,
    find_min_feasible_P,
    instance_from_json,
    instance_solution,
    verify_knapsack_level,
    verify_mkp,
    verify_schedule,
)
from .lattice import (
    MOMENTS,
    LatticeError,
    LatticeVector,
    SubsetIndex,
    rat,
    rat_str,
    to_pseudo_probabilities,
)
from .replay import replay_demand_reduction

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_ORACLE_DECIDED = 4


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, ensure_ascii=False, indent=2)
        fh.write("\n")


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise LatticeError(f"expected a JSON object in {path}")
    return data


def _run_report(
    command: str,
    parameters: dict,
    started: float,
    outputs: Sequence[str],
    verdicts: dict,
) -> None:
    report = {
        "command": command,
        "parameters": parameters,
        "wall_seconds": round(time.monotonic() - started, 3),
        "outputs": list(outputs),
        "verdicts": verdicts,
    }
    json.dump(report, sys.stdout, sort_keys=True, ensure_ascii=False)
    sys.stdout.write("\n")


def _load_moments(path: str) -> LatticeVector:
    data = _read_json(path)
    try:
        n = int(data["n"])
        values = data["values"]
    except (KeyError, TypeError, ValueError) as exc:
        raise LatticeError(f"malformed moments payload: {exc}") from exc
    if not isinstance(values, dict):
        raise LatticeError("malformed moments payload: values must be an object")
    entries = {
        SubsetIndex.parse(label, n).bits: rat(value)
        for label, value in values.items()
    }
    return LatticeVector(n, MOMENTS, entries)


def _load_matrix(path: str) -> list[list[Fraction]]:
    data = _read_json(path)
    try:
        rows = data["rows"]
    except (KeyError, TypeError) as exc:
        raise LatticeError(f"malformed matrix payload: {exc}") from exc
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise LatticeError("malformed matrix payload: rows must be a list of lists")
    return [[rat(v) for v in row] for row in rows]


def _load_schedule(
    path: str, n: int
) -> list[tuple[SubsetIndex, SubsetIndex]]:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise LatticeError(f"expected a JSON list of pivots in {path}")
    out = []
    for item in data:
        try:
            out.append(
                (SubsetIndex.parse(item["H"], n), SubsetIndex.parse(item["S"], n))
            )
        except (KeyError, TypeError) as exc:
            raise LatticeError(f"malformed pivot entry: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def cmd_decompose(args: argparse.Namespace) -> int:
    started = time.monotonic()
    try:
        if args.input is not None:
            y = _load_moments(args.input)
            p = to_pseudo_probabilities(y)
            n = y.n
        else:
            instance = instance_from_json(_read_json(args.instance))
            p = instance_solution(instance, args.level)
            n = p.n
    except (GapError, LatticeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        form = from_pseudo(p, args.level)
    except AdfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    _write_json(args.out, form.to_json_dict())
    _run_report(
        "decompose",
        {"level": args.level, "n": n},
        started,
        [args.out],
        {"terms": len(form.terms), "size": form.size()},
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _certificate_exit(cert: PsdCertificate) -> int:
    if cert.verdict == "PSD":
        return EXIT_OK if cert.recipe_conclusive else EXIT_ORACLE_DECIDED
    return EXIT_NEGATIVE


def cmd_certify(args: argparse.Namespace) -> int:
    started = time.monotonic()
    try:
        if args.adf is not None:
            form = AlmostDiagonalForm.from_json_dict(_read_json(args.adf))
            rows = None
        else:
            rows = _load_matrix(args.matrix)
            form = None
    except (LatticeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    try:
        if args.gershgorin_only:
            report = gershgorin(assemble(form) if form is not None else rows)
            settled = report.all_nonnegative
            cert = PsdCertificate(
                verdict="PSD" if settled else "Inconclusive",
                method="gershgorin-recipe",
                final_disks=report,
                recipe_conclusive=settled,
            )
        elif form is not None:
            schedule = None
            if args.schedule is not None:
                schedule = _load_schedule(args.schedule, form.n)
            cert = certify_recipe(form, schedule=schedule)
        elif args.schedule is not None:
            raise CertifyError("pivot schedules apply to almost-diagonal input only")
        else:
            cert = certify_matrix(rows)
    except CertifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    _write_json(args.out, cert.to_json_dict(include_trace=args.trace))
    _run_report(
        "certify",
        {
            "input": args.adf or args.matrix,
            "gershgorin_only": bool(args.gershgorin_only),
        },
        started,
        [args.out],
        {"verdict": cert.verdict, "method": cert.method},
    )
    return _certificate_exit(cert)


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------


def cmd_gap(args: argparse.Namespace) -> int:
    started = time.monotonic()
    try:
        if args.family == "knapsack":
            k = rat(args.k)
            P = k * (1 << (2 * args.n + 1))
            report = verify_knapsack_level(args.n, P)
            ok = report.feasible and report.gap >= k
        elif args.family == "mkp":
            instance = build_mkp(args.blocks, args.items_per_block, args.eps, args.T)
            report = verify_mkp(instance, args.level)
            ok = report.feasible
        else:
            k = rat(args.k)
            if args.find_min_p:
                pstar = find_min_feasible_P(args.n, k)
                instance = build_schedule(args.n, k, pstar)
            elif args.P is not None:
                instance = build_schedule(args.n, k, rat(args.P))
            else:
                raise GapError("schedule needs either --P or --find-min-p")
            report = verify_schedule(instance)
            ok = report.feasible and report.gap >= k
    except (GapError, LatticeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    _write_json(args.out, report.to_json_dict(include_trace=args.trace))
    _run_report(
        "gap",
        {"family": args.family},
        started,
        [args.out],
        {
            "feasible": report.feasible,
            "gap": rat_str(report.gap),
            "objective": rat_str(report.objective),
        },
    )
    return EXIT_OK if ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def cmd_replay(args: argparse.Namespace) -> int:
    started = time.monotonic()
    try:
        result = replay_demand_reduction(args.eps)
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    _write_json(args.out, result.to_json_dict())
    _run_report(
        "replay",
        {"eps": rat_str(result.eps)},
        started,
        [args.out],
        {"matches": result.matches, "verdict": result.certificate.verdict},
    )
    return EXIT_OK if result.matches else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentcert",
        description="Exact moment-matrix decomposition and PSD certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser(
        "decompose", help="almost-diagonal form of a moment matrix"
    )
    src = dec.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="moments JSON file")
    src.add_argument("--instance", help="instance JSON file")
    dec.add_argument("--level", type=int, required=True, help="truncation level t")
    dec.add_argument("--out", required=True, help="output ADF JSON path")
    dec.set_defaults(func=cmd_decompose)

    cert = sub.add_parser("certify", help="PSD certificate for a form or matrix")
    csrc = cert.add_mutually_exclusive_group(required=True)
    csrc.add_argument("--adf", help="almost-diagonal form JSON file")
    csrc.add_argument("--matrix", help="raw symmetric matrix JSON file")
    cert.add_argument("--schedule", help="explicit pivot schedule JSON file")
    cert.add_argument(
        "--gershgorin-only",
        action="store_true",
        help="stop after reading the disks; never pivot, never call the oracle",
    )
    cert.add_argument(
        "--trace",
        action="store_true",
        help="embed every intermediate working matrix in the certificate",
    )
    cert.add_argument("--out", required=True, help="output certificate JSON path")
    cert.set_defaults(func=cmd_certify)

    gap = sub.add_parser("gap", help="build, solve, and certify a gap instance")
    gsub = gap.add_subparsers(dest="family", required=True)

    knap = gsub.add_parser("knapsack")
    knap.add_argument("--n", type=int, required=True)
    knap.add_argument("--k", required=True, help="gap factor; sets P = k*2^(2n+1)")

    mkp = gsub.add_parser("mkp")
    mkp.add_argument("--eps", required=True, help="per-block demand")
    mkp.add_argument("--T", type=int, required=True, help="cardinality cap")
    mkp.add_argument("--blocks", type=int, default=3)
    mkp.add_argument("--items-per-block", type=int, default=2)
    mkp.add_argument("--level", type=int, default=1)

    sched = gsub.add_parser("schedule")
    sched.add_argument("--n", type=int, required=True)
    sched.add_argument("--k", required=True)
    sched.add_argument("--P", help="weight base to verify at")
    sched.add_argument(
        "--find-min-p",
        action="store_true",
        help="search for the smallest feasible integer base instead",
    )

    for sp in (knap, mkp, sched):
        sp.add_argument("--out", required=True, help="output report JSON path")
        sp.add_argument(
            "--trace", action="store_true", help="embed working matrices"
        )
        sp.set_defaults(func=cmd_gap)

    rep = sub.add_parser(
        "replay",
        help="rerun the worked five-pivot reduction against its goldens",
    )
    rep.add_argument("--eps", default="1/16", help="demand parameter")
    rep.add_argument("--out", required=True, help="output replay JSON path")
    rep.set_defaults(func=cmd_replay)

    return parser


def main(argv: Union[Sequence[str], None] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
