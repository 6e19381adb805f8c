"""Wall time of the oracle, decide_form, the pivot recipe, assemble, the orbit blocks and the lattice transforms.

    python3 tools/oracle_timing.py

Run from anywhere in a source checkout; it imports momentcert from the
checkout's src/. The oracle inputs are the knapsack covering forms at level
n - 1 for n = 5, 6, 7 with P = 2^(2n+1) (all PSD), and one perturbed adf
form: the level-2 moment matrix of a seeded measure on {0,1}^8 (as in
perfbench's adf workload) with one singleton moment made negative, which
is NotPSD. Each oracle line gives the input, its dimension (size), the
bit length of its largest numerator or denominator, the verdict and the
median of 3 timed runs (1 run at n = 7). Matrices are built before the
clock starts. Two sparse oracle lines follow, a 300-row tridiagonal and a
300-row diagonal matrix with seeded rational entries over mixed
denominators; the tridiagonal's diagonal exceeds its row's off-diagonal
sum, so both are PSD.

Each knapsack covering form also gets a decide_form line, which times the
whole decision from the form (the Schur complement, its assembly and the
oracle on it). Its size and bits are those of the matrix decide_form hands
to is_psd_exact, so the size is the reduced dimension. A recipe line then
times certify_recipe(form, fold_top) alone, the single pivot of the top
term into the empty-set row and the disk pass that settles it, as
verify_knapsack_level runs it; its size and bits are those of the
assembled covering form.

Five schedule covering lines time the orbit-block decider,
orbits.decide_orbits, on one prefix covering as verify_schedule runs it
(its orbits and integer moments from gaps._covering_orbits): covering-4
for n = 4, k = 2 at P = 13 and at P = 14 (the smallest feasible base),
covering-4 for n = 4, k = 1 at P = 325 and at P = 326 (the smallest
feasible base), and covering-1 for n = 4, k = 1 at P = 325, the one
covering that fails there, so its time includes lifting the witness.
The size is the dense dimension |P_t| the blocks stand for and the bits
are those of the largest block entry. Each line ends with deterministic
counters: the number of blocks, the largest block's rows and the rows of
all blocks. The first of the 3 runs starts with the cached per-orbit
terms and block lists of whatever ran before it.

The last two lines time a transform pair. The first is the pair that
verify_schedule runs: from_pseudo_probabilities and then, inside
decompose, to_pseudo_probabilities, on the schedule solution for n = 4,
k = 2, P = 20 (16 jobs, 137 nonzero pseudo-probabilities). The second is
the pair to_pseudo_probabilities and then from_pseudo_probabilities on
the moments of the seeded measure on {0,1}^9 (the adf input, with every
one of its 512 entries nonzero), so the cost of a full support stays in
view. Each size is the number of entries the pass touches, the
down-closure of the input's support; each line also gives the bit
length of the largest numerator on either side, "exact" when the round
trip returns the input, and the median of 3 runs of the pair.

Two assemble lines time assemble alone on the perturbed adf forms at
n = 8 and n = 9 (the same seed, level 2), the densification every
perturbed adf job runs before the oracle. Size and bits are those of the
assembled matrix and the verdict column is "-"; each line ends with the
form's term count and its rank-one updates, the sum of nnz(g)^2 over its
terms (perfbench's adf.assemble.updates counter), and gives the median of
3 runs.

Two adf-json lines time the ADF codec on the same perturbed forms at
n = 8 and n = 9, as the CLI runs it: encoding is cli._write_json of
to_json_dict, as decompose writes its --out, and decoding is cli._load
with from_json_dict, as certify --adf reads it, both on a file in a
temporary directory. The size is the form's and the bits column is "-".
The seconds column is the median encode time of 3 runs; the line ends with the median decode time and the file's bytes.
The verdict column reads "exact" when the decoded form equals the
encoded one.

The adf-measure n=9 line runs a whole unperturbed adf job in process:
cli.main with decompose --input on the seeded measure's moments at level
2, then with certify --adf on the form it wrote, both in a temporary
directory with the run reports kept off stdout. The size is the form's,
the verdict is "PSD" when both commands exit 0, and the seconds column
is the median of 3 runs of the pair. The line ends with the number of
g_vector calls in one further run of the pair, counted by a wrapper on
momentcert.adf.g_vector.

The mkp-recipe line times the rank-one layer alone: the pivot_reduce
calls and the gershgorin(state) readings of the greedy certify_recipe on
the demand-1 form of gap mkp with 4 blocks of 3 items, eps = 1/16 and
T = 3 at level 1, as verify_mkp runs it. The size is the form's, the bits
column is "-", the verdict is the certificate's, and the seconds column
is the median over 3 runs of the summed time inside those two functions
(the oracle fallback is not counted). The line ends with deterministic
counters of one run: the pivots, the readings, and the folded terms summed
over the readings.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from math import comb

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import momentcert.adf as adf  # noqa: E402
import momentcert.certify as certify  # noqa: E402
from momentcert import cli  # noqa: E402
from momentcert.adf import AlmostDiagonalForm, assemble, from_pseudo  # noqa: E402
from momentcert.certify import certify_recipe, decide_form, is_psd_exact  # noqa: E402
from momentcert.gaps import (  # noqa: E402
    _covering_orbits,
    build_knapsack,
    build_mkp,
    build_schedule,
    knapsack_constraint,
    schedule_solution,
)
from momentcert.lattice import (  # noqa: E402
    MOMENTS,
    PSEUDO_PROBABILITIES,
    LatticeVector,
    SubsetIndex,
    from_pseudo_probabilities,
    rat_str,
    to_pseudo_probabilities,
)
from momentcert.moments import constraint_diagonal  # noqa: E402
from momentcert.orbits import block_matrix, decide_orbits, orbit_blocks  # noqa: E402
import workloads  # noqa: E402

ADF_N = 8
ADF_SEED = 5
SPARSE_SIZE = 300
SPARSE_SEED = 7


def knapsack_covering(n: int) -> AlmostDiagonalForm:
    P = 2 ** (2 * n + 1)
    p = build_knapsack(n, P).solution(n - 1)
    return from_pseudo(constraint_diagonal(knapsack_constraint(n, P), p), n - 1)


def perturbed_adf(n: int) -> AlmostDiagonalForm:
    rng = random.Random(ADF_SEED)
    numer, total = workloads.measure_moments(rng, n)
    numer[1 << rng.randrange(n)] = -rng.randint(1, 9)
    w = LatticeVector(n, MOMENTS, {m: Fraction(v, total) for m, v in enumerate(numer)})
    return from_pseudo(to_pseudo_probabilities(w), workloads.ADF_LEVEL)


def sparse_psd(size: int, bandwidth: int) -> list[list[Fraction]]:
    """A seeded symmetric matrix with the given bandwidth, strictly diagonally dominant."""
    rng = random.Random(SPARSE_SEED)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, min(i + bandwidth + 1, size)):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-99, 99), rng.randint(1, 9))
    for i, r in enumerate(rows):
        r[i] = sum(map(abs, r), Fraction(rng.randint(1, 99), rng.randint(1, 9)))
    return rows


def max_bits(rows: list[list[Fraction]]) -> int:
    return max(max(abs(v.numerator).bit_length(), v.denominator.bit_length())
               for row in rows for v in row)


def row(name: str, rows: list[list[Fraction]], verdict: str, times: list[float]) -> str:
    return (f"{name:<28} {len(rows):>5} {max_bits(rows):>5} {verdict:>7} "
            f"{statistics.median(times):>9.4f}")


def timed(decide, runs: int = 3) -> tuple[str, list[float]]:
    """The verdict of decide() and the wall times of runs calls."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        verdict = decide().verdict
        times.append(time.perf_counter() - start)
    return verdict, times


def oracle_row(name: str, rows: list[list[Fraction]], runs: int) -> str:
    return row(name, rows, *timed(lambda: is_psd_exact(rows), runs))


def decide_form_row(name: str, form: AlmostDiagonalForm) -> str:
    verdict, times = timed(lambda: decide_form(form))
    seen = []

    def spy(rows):
        seen.append(rows)
        return is_psd_exact(rows)

    certify.is_psd_exact = spy
    try:
        decide_form(form)
    finally:
        certify.is_psd_exact = is_psd_exact
    return row(name, seen[0], verdict, times)


def recipe_row(name: str, form: AlmostDiagonalForm, rows: list[list[Fraction]]) -> str:
    fold_top = [(SubsetIndex((1 << form.n) - 1, form.n), SubsetIndex(0, form.n))]
    return row(name, rows, *timed(lambda: certify_recipe(form, fold_top)))


def assemble_row(n: int) -> str:
    form = perturbed_adf(n)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        rows = assemble(form)
        times.append(time.perf_counter() - start)
    updates = sum(sum(1 for v in term.g_vec if v) ** 2 for term in form.terms)
    return (row(f"assemble adf-perturbed n={n}", rows, "-", times)
            + f"  terms={len(form.terms)} updates={updates}")


def adf_json_row(n: int) -> str:
    form = perturbed_adf(n)
    encode, decode = [], []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "form.json")
        for _ in range(3):
            start = time.perf_counter()
            cli._write_json(path, form.to_json_dict())
            encode.append(time.perf_counter() - start)
            start = time.perf_counter()
            back = cli._load(path, AlmostDiagonalForm.from_json_dict)
            decode.append(time.perf_counter() - start)
        size = os.path.getsize(path)
    same = (back.index, back.diag, [(u.J, u.coefficient, u.g_vec) for u in back.terms]) == (
        form.index, form.diag, [(u.J, u.coefficient, u.g_vec) for u in form.terms])
    return (f"{f'adf-json n={n}':<28} {form.size():>5} {'-':>5} "
            f"{'exact' if same else 'DIFF':>7} {statistics.median(encode):>9.4f}"
            f"  decode={statistics.median(decode):.4f} bytes={size}")


def adf_measure_row(n: int) -> str:
    w = measure_moments(n)
    values = {str(SubsetIndex(mask, n)): rat_str(v) for mask, v in w.items()}
    g_vector, calls = adf.g_vector, []

    def counted(J, index):
        calls.append(J)
        return g_vector(J, index)

    times = []
    with tempfile.TemporaryDirectory() as tmp:
        moments, form, cert = (os.path.join(tmp, name) for name in ("w.json", "f.json", "c.json"))
        cli._write_json(moments, {"n": n, "values": values})
        argvs = (["decompose", "--input", moments, "--level", str(workloads.ADF_LEVEL),
                  "--out", form], ["certify", "--adf", form, "--out", cert])

        def job() -> list[int]:
            with contextlib.redirect_stdout(io.StringIO()):
                return [cli.main(argv) for argv in argvs]

        for _ in range(3):
            start = time.perf_counter()
            codes = job()
            times.append(time.perf_counter() - start)
        adf.g_vector = counted
        try:
            job()
        finally:
            adf.g_vector = g_vector
        size = cli._load(form, AlmostDiagonalForm.from_json_dict).size()
    verdict = "PSD" if codes == [0, 0] else f"exit{codes}"
    return (f"{f'adf-measure n={n}':<28} {size:>5} {'-':>5} {verdict:>7} "
            f"{statistics.median(times):>9.4f}  g_vector={len(calls)}")


def mkp_recipe_row() -> str:
    instance = build_mkp(4, 3, Fraction(1, 16), 3)
    form = from_pseudo(constraint_diagonal(instance.demand_constraint(1), instance.solution(1)), 1)
    pivot, disks = certify.pivot_reduce, certify.gershgorin
    counts: dict[str, float] = {}

    def spent(f, key):
        def wrapped(*args):
            start = time.perf_counter()
            out = f(*args)
            counts["s"] += time.perf_counter() - start
            counts[key] += 1
            if key == "readings":
                counts["folded"] += len(args[0].folded)
            return out
        return wrapped

    times = []
    certify.pivot_reduce, certify.gershgorin = spent(pivot, "pivots"), spent(disks, "readings")
    try:
        for _ in range(3):
            counts.update(s=0.0, pivots=0, readings=0, folded=0)
            verdict = certify_recipe(form).verdict
            times.append(counts["s"])
    finally:
        certify.pivot_reduce, certify.gershgorin = pivot, disks
    return (f"{'mkp-recipe 4x3 demand-1':<28} {form.size():>5} {'-':>5} {verdict:>7} "
            f"{statistics.median(times):>9.4f}  pivots={counts['pivots']} "
            f"readings={counts['readings']} folded={counts['folded']}")


def schedule_covering_row(k: int, P: int, level: int) -> str:
    instance = build_schedule(4, k, P)
    t = instance.level_cap - 1
    orbits, moment = _covering_orbits(instance, level)
    sizes = tuple(len(orbit) for orbit in orbits)
    blocks = orbit_blocks(sizes, t)
    verdict, times = timed(lambda: decide_orbits(orbits, instance.jobs, t, moment))
    bits = max(max_bits(block_matrix(sizes, block, moment)) for block in blocks)
    dense = sum(comb(instance.jobs, s) for s in range(t + 1))
    return (f"{f'schedule (4,{k}) cov-{level} P={P}':<28} {dense:>5} {bits:>5} {verdict:>7} "
            f"{statistics.median(times):>9.4f}  blocks={len(blocks)} "
            f"largest={max(len(block.levels) for block in blocks)} "
            f"rows={sum(len(block.levels) for block in blocks)}")


def main() -> int:
    print(f"{'input':<28} {'size':>5} {'bits':>5} {'verdict':>7} {'seconds':>9}")
    for n in (5, 6, 7):
        form = knapsack_covering(n)
        rows = assemble(form)
        print(oracle_row(f"knapsack-covering n={n}", rows, 1 if n == 7 else 3), flush=True)
        print(decide_form_row(f"decide_form covering n={n}", form), flush=True)
        print(recipe_row(f"recipe covering n={n}", form, rows), flush=True)
    print(oracle_row(f"adf-perturbed n={ADF_N} t={workloads.ADF_LEVEL}",
                     assemble(perturbed_adf(ADF_N)), 3), flush=True)
    print(oracle_row(f"tridiagonal {SPARSE_SIZE}", sparse_psd(SPARSE_SIZE, 1), 3), flush=True)
    print(oracle_row(f"diagonal {SPARSE_SIZE}", sparse_psd(SPARSE_SIZE, 0), 3), flush=True)
    for n in (8, 9):
        print(assemble_row(n), flush=True)
    for n in (8, 9):
        print(adf_json_row(n), flush=True)
    print(adf_measure_row(9), flush=True)
    print(mkp_recipe_row(), flush=True)
    for k, P, level in ((2, 13, 4), (2, 14, 4), (1, 325, 4), (1, 326, 4), (1, 325, 1)):
        print(schedule_covering_row(k, P, level), flush=True)
    print(transform_row("transform-pair schedule n=4",
                        schedule_solution(build_schedule(4, 2, 20))), flush=True)
    print(transform_row("transform-pair moments n=9", measure_moments(9)), flush=True)
    return 0


def down_closure_size(v: LatticeVector) -> int:
    """How many masks lie below some mask of v's support."""
    masks = {mask for mask, _ in v.items()}
    for b in range(v.n):
        masks |= {mask & ~(1 << b) for mask in masks}
    return len(masks)


def transform_row(name: str, v: LatticeVector) -> str:
    there, back = ((from_pseudo_probabilities, to_pseudo_probabilities)
                   if v.kind == PSEUDO_PROBABILITIES
                   else (to_pseudo_probabilities, from_pseudo_probabilities))
    times = []
    for _ in range(3):
        start = time.perf_counter()
        u = there(v)
        again = back(u)
        times.append(time.perf_counter() - start)
    bits = max(abs(x.numerator).bit_length() for vec in (v, u) for _, x in vec.items())
    verdict = "exact" if again == v else "DIFF"
    return (f"{name:<28} {down_closure_size(v):>5} {bits:>5} "
            f"{verdict:>7} {statistics.median(times):>9.4f}")


def measure_moments(n: int) -> LatticeVector:
    """The moments of the seeded measure on {0,1}^n that perturbed_adf starts from."""
    numer, total = workloads.measure_moments(random.Random(ADF_SEED), n)
    return LatticeVector(n, MOMENTS, {m: Fraction(v, total) for m, v in enumerate(numer)})


if __name__ == "__main__":
    sys.exit(main())
