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
    2  an input could not be read or parsed, or the output could not
       be written
    3  invalid argument (level out of range, bad pivot, bad parameters)
    4  the pivot recipe stayed inconclusive and the exact oracle had to
       decide; the verdict in the certificate is the oracle's
    5  internal error; the traceback goes to stderr

main() alone maps errors to these codes; the commands catch nothing.
Each cmd_* only decides: it returns the artifact payload, the run
report's parameters and verdicts, and the exit code, and writes and
prints nothing. main alone writes the artifact to --out and then prints
the run report, each from one place, so a command that raises leaves
neither.

An artifact's text is json.dumps(payload, sort_keys=True,
ensure_ascii=False, indent=2) plus a newline, byte for byte, but it is
written by _json_text: json falls back to its pure-Python encoder
whenever an indent is given, so _json_text sends every string and key
through json's C string encoder and joins the containers itself. The
whole text is built and encoded to UTF-8 before --out is opened, so a
payload that cannot be written (a float, a Fraction or a non-str key
raises TypeError, exit 5) leaves no file either.

Rationals, in input files and on the command line alike, are written
as an optional sign, ASCII digits and an optional "/digits": "3",
"-7/2". Exponents, decimal points and underscores are refused, exit 2
in an input file and 3 on the command line. decompose --instance
decomposes the instance family's own closed-form solution at --level.

certify --gershgorin-only reads the disks once and stops, for a raw
matrix (--matrix) and for an almost-diagonal form (--adf, read by the
same form reader as a pivot stage) alike: PSD when every disk passes,
Inconclusive (exit 1) otherwise. It never pivots and never calls the
oracle, so it refuses a --schedule (exit 3), as a raw matrix does. Its
disk rows carry the form's subset labels, and a raw matrix's row numbers.

--trace writes every pivot stage as the form it is: its diagonal keyed
by row label, and each folded term as its coefficient plus its nonzero
vector entries keyed by row label, so no stage is assembled and the
trace grows with the stages' nonzeros, not with the square of the size.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Any, Callable, Sequence, TypeVar, Union

from .adf import AlmostDiagonalForm, from_pseudo
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
    verify_knapsack_level,
    verify_mkp,
    verify_schedule,
)
from .lattice import (
    MOMENTS,
    LatticeError,
    LatticeVector,
    SubsetIndex,
    check_subset_count,
    json_int,
    max_ground_size,
    parse_subset_mask,
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
EXIT_INTERNAL = 5

T = TypeVar("T")
# What a command decided: (artifact payload, parameters, verdicts, exit code).
Outcome = tuple[dict, dict, dict, int]


class InputError(Exception):
    """An input file could not be read or parsed."""


def _json_text(value: Any, indent: str) -> str:
    """value as json.dumps(value, sort_keys=True, ensure_ascii=False, indent=2) writes it.

    indent is the line break and padding before value's own line. A
    string inside a container is encoded in place, with no call per
    string. Anything but str, int, bool, None, dict with str keys, list
    and tuple raises TypeError, floats and Fractions included.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        brackets, items = "{}", [
            encode_basestring(k) + ": "
            + (encode_basestring(v) if type(v) is str else _json_text(v, inner))
            for k, v in sorted(value.items())
        ]
    elif isinstance(value, (list, tuple)):
        brackets, items = "[]", [
            encode_basestring(v) if type(v) is str else _json_text(v, inner) for v in value
        ]
    elif isinstance(value, str):
        return encode_basestring(value)
    elif value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    elif isinstance(value, int):
        return int.__repr__(value)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1]


def _write_json(path: str, payload: dict) -> None:
    """Write payload as indented JSON; the whole text is encoded before path is opened."""
    data = (_json_text(payload, "\n") + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


def _load(path: str, parse: Callable[[Any], T]) -> T:
    """parse() applied to the JSON in path; any failure is an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except Exception as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from exc


def _parse_moments(data: dict) -> LatticeVector:
    n = json_int(data["n"])
    entries = {
        parse_subset_mask(label, n): rat(value)
        for label, value in data["values"].items()
    }
    return LatticeVector(n, MOMENTS, entries)


def _parse_matrix(data: dict) -> list[list[Fraction]]:
    rows = data["rows"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise LatticeError("rows must be a list of lists")
    return [[rat(v) for v in row] for row in rows]


def _parse_schedule(data: list, n: int) -> list[tuple[SubsetIndex, SubsetIndex]]:
    if not isinstance(data, list):
        raise LatticeError("expected a JSON list of pivots")
    return [
        (SubsetIndex.parse(item["H"], n), SubsetIndex.parse(item["S"], n))
        for item in data
    ]


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def cmd_decompose(args: argparse.Namespace) -> Outcome:
    if args.input is not None:
        w = _load(args.input, _parse_moments)
        # Refuse an oversized P_t before the 2^n transform runs.
        check_subset_count(w.n, args.level)
        p = to_pseudo_probabilities(w)
    else:
        instance = _load(args.instance, instance_from_json)
        p = instance.solution(args.level)
    form = from_pseudo(p, args.level)
    return (
        form.to_json_dict(),
        {"level": args.level, "n": p.n},
        {"terms": len(form.terms), "size": form.size()},
        EXIT_OK,
    )


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _certificate_exit(cert: PsdCertificate) -> int:
    if cert.verdict == "PSD":
        return EXIT_OK if cert.recipe_conclusive else EXIT_ORACLE_DECIDED
    return EXIT_NEGATIVE


def cmd_certify(args: argparse.Namespace) -> Outcome:
    if args.schedule is not None and (args.gershgorin_only or args.adf is None):
        raise CertifyError("a pivot schedule needs --adf input and no --gershgorin-only")
    if args.adf is not None:
        form = _load(args.adf, AlmostDiagonalForm.from_json_dict)
        rows = None
    else:
        rows = _load(args.matrix, _parse_matrix)
        form = None

    if args.gershgorin_only:
        report = gershgorin(form if form is not None else rows)
        cert = PsdCertificate(
            verdict="PSD" if report.all_nonnegative else "Inconclusive",
            method="gershgorin-recipe",
            final_disks=report,
            row_labels=None if form is None else [str(s) for s in form.index],
        )
    elif form is not None:
        schedule = None
        if args.schedule is not None:
            schedule = _load(args.schedule, lambda data: _parse_schedule(data, form.n))
        cert = certify_recipe(form, schedule=schedule)
    else:
        cert = certify_matrix(rows)

    return (
        cert.to_json_dict(include_trace=args.trace),
        {
            "input": args.adf or args.matrix,
            "gershgorin_only": bool(args.gershgorin_only),
        },
        {"verdict": cert.verdict, "method": cert.method},
        _certificate_exit(cert),
    )


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------


def cmd_gap(args: argparse.Namespace) -> Outcome:
    if args.family == "knapsack":
        if not 2 <= args.n <= max_ground_size():
            raise GapError(
                f"knapsack needs 2 <= n <= {max_ground_size()}, got {args.n}"
            )
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
        if args.find_min_p == (args.P is not None):
            raise GapError("schedule needs exactly one of --P and --find-min-p")
        if args.find_min_p:
            report = find_min_feasible_P(args.n, k)
        else:
            report = verify_schedule(build_schedule(args.n, k, rat(args.P)))
        ok = report.feasible and report.gap >= k

    return (
        report.to_json_dict(include_trace=args.trace),
        {"family": args.family},
        {
            "feasible": report.feasible,
            "gap": rat_str(report.gap),
            "objective": rat_str(report.objective),
        },
        EXIT_OK if ok else EXIT_NEGATIVE,
    )


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def cmd_replay(args: argparse.Namespace) -> Outcome:
    result = replay_demand_reduction(args.eps)
    return (
        result.to_json_dict(),
        {"eps": rat_str(result.eps)},
        {"matches": result.matches, "verdict": result.certificate.verdict},
        EXIT_OK if result.matches else EXIT_NEGATIVE,
    )


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
        help="embed every intermediate pivot stage in the certificate",
    )
    cert.add_argument("--out", required=True, help="output certificate JSON path")

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
            "--trace", action="store_true", help="embed pivot stages"
        )

    rep = sub.add_parser(
        "replay",
        help="rerun the worked five-pivot reduction against its goldens",
    )
    rep.add_argument("--eps", default="1/16", help="demand parameter")
    rep.add_argument("--out", required=True, help="output replay JSON path")

    return parser


# Built once per process; main looks the command up at call time.
_PARSER = build_parser()


def main(argv: Union[Sequence[str], None] = None) -> int:
    args = _PARSER.parse_args(argv)
    started = time.monotonic()
    try:
        payload, parameters, verdicts, code = globals()[f"cmd_{args.command}"](args)
        _write_json(args.out, payload)
        report = {
            "command": args.command,
            "parameters": parameters,
            "wall_seconds": round(time.monotonic() - started, 3),
            "outputs": [args.out],
            "verdicts": verdicts,
        }
        print(json.dumps(report, sort_keys=True, ensure_ascii=False))
        return code
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except LatticeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
