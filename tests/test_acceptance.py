"""Acceptance suite: one check per numbered criterion, one printed line each.

Two criteria (3 and 7) pin hand-transcribed numbers that the exact
arithmetic contradicts; those checks are implemented as stated and fail,
with the computed values spelled out in the failure message. Everything
else must pass. Each check prints `criterion N: PASS/FAIL` so a full run
reads as a scorecard.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from momentcert import (
    MOMENTS,
    PSEUDO_PROBABILITIES,
    LatticeVector,
    LinearConstraint,
    SubsetIndex,
    assemble,
    build_mkp,
    build_schedule,
    canonical_instance,
    certify_recipe,
    constraint_diagonal,
    decompose,
    enumerate_subsets,
    find_min_feasible_P,
    from_pseudo,
    from_pseudo_probabilities,
    gershgorin,
    g_vector,
    is_psd_exact,
    knapsack_constraint,
    knapsack_solution,
    normalized_demand_form,
    quad_eval,
    quadratic_form,
    replay_demand_reduction,
    schedule_solution,
    to_pseudo_probabilities,
    verify_knapsack_level,
    verify_mkp,
    verify_schedule,
)

from gaps_ref import trace_bound_check
from moments_ref import from_dense, shift, to_dense
from psd_minors import principal_minors_psd
from rank_one_ref import as_fractions
from replay_ref import transcribed_matrices

KNAPSACK_SIZES = [(n, k) for n in range(2, 8) for k in (1, 2, 4)]


def _announce(capsys, number, ok, detail=""):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    with capsys.disabled():
        print(line, flush=True)


def random_moments(n, rng):
    values = [
        F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(1 << n)
    ]
    return from_dense(n, MOMENTS, values)


# ---------------------------------------------------------------------------
# shared heavy computation: one report per knapsack size
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def knapsack_reports():
    started = time.monotonic()
    reports = {}
    for n, k in KNAPSACK_SIZES:
        P = k << (2 * n + 1)
        reports[(n, k)] = verify_knapsack_level(n, P)
    return reports, time.monotonic() - started


# ---------------------------------------------------------------------------
# criterion 1: full-level diagonalization identity
# ---------------------------------------------------------------------------


def test_criterion_1_full_level_diagonalization(capsys):
    started = time.monotonic()
    rng = random.Random(1001)
    checked = 0
    for n in range(1, 11):
        for _ in range(50):
            w = random_moments(n, rng)
            p = to_pseudo_probabilities(w)
            # the entrywise claim: entry (I, J) of Z Diag(p) Z^T is the
            # superset sum of p over I union J, which
            # from_pseudo_probabilities evaluates at every union.
            assert from_pseudo_probabilities(p) == w
            checked += 1
    # literal matrix product cross-check at small n, so the superset-sum
    # reduction above is itself validated against Z Diag(p) Z^T
    for n in range(1, 5):
        for _ in range(3):
            w = random_moments(n, rng)
            p = to_dense(to_pseudo_probabilities(w))
            size = 1 << n
            for i in range(size):
                for j in range(size):
                    got = sum(
                        p[k] for k in range(size) if i & k == i and j & k == j
                    )
                    assert got == w.get(i | j)
    elapsed = time.monotonic() - started
    ok = checked == 500 and elapsed < 30
    _announce(capsys, 1, ok, f"500 vectors in {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: truncated congruence identities
# ---------------------------------------------------------------------------


def _superset_moebius_dense(values, n):
    """Superset Moebius transform over the full lattice, on integer numerators."""
    out = list(values)
    for b in range(n):
        bit = 1 << b
        for m in range(1 << n):
            if not m & bit:
                out[m] -= out[m | bit]
    return out


def _conjugate_by_head_inverse(w, t):
    """A(t)^{-1} M_t(w) A(t)^{-T} without materializing the inverse.

    The head inclusion block acts as a superset-zeta over P_t, so its
    inverse acts as a superset-Moebius; applying the Moebius transform to
    each column and then each row (entries embedded into the full lattice,
    zero above the level) multiplies by the inverse on both sides. Both
    passes are linear with integer coefficients, so they run on the
    integer numerators of w over one common denominator L, and each entry
    becomes a Fraction over L at the end.
    """
    n = w.n
    index = enumerate_subsets(n, t)
    size = len(index)
    moments = to_dense(w)
    L = math.lcm(*(v.denominator for v in moments))
    num = [v.numerator * (L // v.denominator) for v in moments]
    inter = [[0] * size for _ in range(size)]
    for jpos, J in enumerate(index):
        dense = [0] * (1 << n)
        for K in index:
            dense[K.bits] = num[K.bits | J.bits]
        red = _superset_moebius_dense(dense, n)
        for ipos, I in enumerate(index):
            inter[ipos][jpos] = red[I.bits]
    out = [[F(0)] * size for _ in range(size)]
    for ipos in range(size):
        dense = [0] * (1 << n)
        for jpos, J in enumerate(index):
            dense[J.bits] = inter[ipos][jpos]
        red = _superset_moebius_dense(dense, n)
        for jpos, J in enumerate(index):
            out[ipos][jpos] = F(red[J.bits], L)
    return index, out


def test_criterion_2_truncated_congruence(capsys):
    started = time.monotonic()
    rng = random.Random(1002)
    pairs = 0
    for n in range(1, 8):
        for t in range(0, n + 1):
            for _ in range(20):
                w = random_moments(n, rng)
                form = decompose(w, t)
                index, conj = _conjugate_by_head_inverse(w, t)
                assert as_fractions(*assemble(form)) == conj

                # head/tail block identity: pushing the diagonal part
                # through the head block and the above-level masses
                # through the tail block rebuilds M_t(w) entrywise
                p = to_dense(to_pseudo_probabilities(w))
                head = [
                    v if m.bit_count() <= t else F(0)
                    for m, v in enumerate(p)
                ]
                tail = [
                    v if m.bit_count() > t else F(0)
                    for m, v in enumerate(p)
                ]
                zh = from_pseudo_probabilities(
                    from_dense(n, PSEUDO_PROBABILITIES, head)
                )
                zt = from_pseudo_probabilities(
                    from_dense(n, PSEUDO_PROBABILITIES, tail)
                )
                for I in index:
                    for J in index:
                        u = I.bits | J.bits
                        assert zh.get(u) + zt.get(u) == w.get(u)
            pairs += 1
    elapsed = time.monotonic() - started
    ok = pairs == 35 and elapsed < 120
    _announce(capsys, 2, ok, f"35 (n,t) pairs x 20 vectors in {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 3: the worked single-pivot example
# ---------------------------------------------------------------------------


def test_criterion_3_worked_pivot_example(capsys):
    form = from_pseudo(
        LatticeVector(
            2,
            PSEUDO_PROBABILITIES,
            {0b00: 1, 0b01: "-1/3", 0b10: 1, 0b11: 2},
        ),
        1,
    )
    failures = []

    raw = gershgorin(as_fractions(*assemble(form)))
    if raw.centers != [F(3), F(5, 3), F(3)] or raw.radii != [F(4)] * 3:
        failures.append(f"raw disks differ: {raw}")

    cert = certify_recipe(form)
    if cert.verdict != "PSD" or not cert.recipe_conclusive:
        failures.append(f"recipe did not settle PSD: {cert.verdict}")
    if is_psd_exact(as_fractions(*assemble(form))).verdict != "PSD":
        failures.append("oracle disagrees with the certificate")

    pinned_centers = [F(4, 3), F(5, 3), F(4, 3)]
    pinned_radii = [F(2, 3)] * 3
    disks = cert.final_disks
    if disks.radii != pinned_radii:
        failures.append(f"post-pivot radii {disks.radii} != {pinned_radii}")
    if disks.centers != pinned_centers:
        failures.append(
            "pinned post-pivot disk centers (4/3, 5/3, 4/3) disagree with "
            f"the exact reduction {tuple(str(c) for c in disks.centers)}; "
            "the pivot is a verified congruence (T M T^T reproduces the "
            "working matrix entry by entry), the radii and the PSD verdict "
            "agree, so the pinned first and third centers are arithmetic "
            "slips in the worked numbers, not a code defect"
        )

    _announce(
        capsys,
        3,
        not failures,
        "pinned post-pivot centers (4/3, 5/3, 4/3) vs computed (2/3, 5/3, 2/3)"
        if failures
        else "",
    )
    assert not failures, "; ".join(failures)


# ---------------------------------------------------------------------------
# criterion 4: knapsack gap instances at desk scale
# ---------------------------------------------------------------------------


def test_criterion_4_knapsack_gap_instances(capsys, knapsack_reports):
    reports, build_seconds = knapsack_reports
    for (n, k), report in reports.items():
        assert report.feasible, (n, k)
        assert report.level == n - 1
        covering = report.certificate("covering")
        assert covering.recipe_conclusive
        top = str(SubsetIndex((1 << n) - 1, n))
        assert [s.to_json_dict() for s in covering.schedule] == [
            {"H": top, "S": "{}"}
        ]
        assert report.certificate("covering-oracle").verdict == "PSD"
        assert report.certificate("moment-matrix").verdict == "PSD"
        assert report.objective <= F(1, k)
        assert report.gap >= k
    ok = build_seconds < 300
    _announce(
        capsys,
        4,
        ok,
        f"18 instances (n up to 7, k up to 4) in {build_seconds:.1f}s",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: uniform disk radii in the pivoted covering matrix
# ---------------------------------------------------------------------------


def test_criterion_5_uniform_disk_radii(capsys, knapsack_reports):
    reports, _ = knapsack_reports
    for (n, k), report in reports.items():
        P = F(k << (2 * n + 1))
        p_empty = knapsack_solution(n, P).get(0)
        expected = ((1 << n) - 2) * p_empty / P
        disks = report.certificate("covering").final_disks
        assert disks.radii == [expected] * len(disks.radii), (n, k)
    _announce(capsys, 5, True, "radius (2^n-2)*p_empty/P on every row")


# ---------------------------------------------------------------------------
# criterion 6: trace identity and the empty-set mass bound
# ---------------------------------------------------------------------------


def test_criterion_6_trace_identity_and_mass_bound(capsys, knapsack_reports):
    reports, _ = knapsack_reports
    # exact trace identity on every constructed solution
    for (n, k), report in reports.items():
        P = F(k << (2 * n + 1))
        p = knapsack_solution(n, P)
        y = from_pseudo_probabilities(p)
        check = trace_bound_check(n, P, y)
        z_empty = shift(knapsack_constraint(n, P), y).get(0)
        p_empty = p.get(0)
        assert check.trace == z_empty - ((1 << n) - 2) * p_empty / P, (n, k)
        assert check.matrix_psd and check.bound_holds

    # randomized sweep: whenever the pivoted matrix is PSD, the empty-set
    # mass obeys p_empty <= P * z_empty / (2^n - 2)
    rng = random.Random(1006)
    psd_hits = 0
    for n in range(3, 7):
        P = 1 << (2 * n + 1)
        for _ in range(50):
            raw = [F(rng.randint(0, 9)) for _ in range(1 << n)]
            raw[0] *= rng.choice([0, 1, 10, 1000])
            total = sum(raw)
            if total == 0:
                raw[0] = F(1)
                total = F(1)
            p = from_dense(
                n, PSEUDO_PROBABILITIES, [v / total for v in raw]
            )
            y = from_pseudo_probabilities(p)
            check = trace_bound_check(n, P, y)
            z_empty = shift(knapsack_constraint(n, P), y).get(0)
            assert check.trace == z_empty - ((1 << n) - 2) * p.get(0) / P
            if check.matrix_psd:
                psd_hits += 1
                assert check.bound_holds
    assert psd_hits > 0
    _announce(
        capsys,
        6,
        True,
        f"18 constructed + 200 sampled solutions, {psd_hits} oracle-feasible",
    )


# ---------------------------------------------------------------------------
# criterion 7: five-pivot replay against the transcribed stage tables
# ---------------------------------------------------------------------------


def test_criterion_7_five_pivot_replay(capsys):
    eps = F(1, 16)
    failures = []

    result = replay_demand_reduction(eps)
    transcribed = transcribed_matrices(eps)
    stage_diffs = []
    computed = [as_fractions(*stage) for stage in result.stages]
    for si, (got, want) in enumerate(zip(computed, transcribed), start=1):
        for i in range(7):
            for j in range(7):
                if got[i][j] != want[i][j]:
                    stage_diffs.append(
                        f"stage {si} ({i},{j}): computed {got[i][j]}, "
                        f"transcribed {want[i][j]}"
                    )
    if stage_diffs:
        failures.append(
            "transcribed intermediate matrices differ from the exact "
            f"reduction in {len(stage_diffs)} cells, all in the top-left "
            "corner, short by exactly 2*eps at every stage: "
            + "; ".join(stage_diffs)
            + "; the congruence invariant (working matrix plus unfolded "
            "terms stays congruent to the input form) holds at every "
            "stage, so the transcription dropped the 2*eps contribution "
            "the first pivot folds into that cell"
        )

    disks = result.final_disks
    boundary_rows = (1, 2)
    for row in boundary_rows:
        if disks.centers[row] != disks.radii[row]:
            failures.append(
                f"row {row} should sit on the boundary at eps=1/16: "
                f"center {disks.centers[row]}, radius {disks.radii[row]}"
            )
    bad_rows = [
        (i, disks.centers[i], disks.radii[i])
        for i in range(7)
        if disks.centers[i] < disks.radii[i]
    ]
    if bad_rows:
        failures.append(
            "final disks should satisfy center >= radius everywhere, but "
            + "; ".join(
                f"row {i} has center {c} < radius {r}" for i, c, r in bad_rows
            )
            + " (row 0 carries the same 2*eps deficit as the stage tables: "
            "its true center is 2 - 12*eps, not 2 - 10*eps, and at "
            "eps = 1/16 that is 5/4 against radius 11/8)"
        )

    report = verify_mkp(canonical_instance(eps), 1)
    oracle_targets = [
        label for label, _ in report.certificates if label.endswith("-oracle")
    ]
    for label in ["moment-matrix"] + oracle_targets:
        if report.certificate(label).verdict != "PSD":
            failures.append(f"constraint matrix {label} is not PSD")
    if report.gap != F(3, 2):
        failures.append(f"gap {report.gap} != 3/2")

    loose = replay_demand_reduction(F(1, 8)).final_disks
    if loose.centers[1] >= loose.radii[1]:
        failures.append("boundary row unexpectedly passes at eps = 1/8")

    _announce(
        capsys,
        7,
        not failures,
        "stage top-left cells and final disk row {} are short by 2*eps",
    )
    assert not failures, "\n".join(failures)


# ---------------------------------------------------------------------------
# criterion 8: scheduling family at desk scale
# ---------------------------------------------------------------------------


def test_criterion_8_scheduling_family(capsys):
    started = time.monotonic()
    pstar = find_min_feasible_P(4, 2).instance.P
    # golden recorded on the first run of the search
    assert pstar == 14
    report = verify_schedule(build_schedule(4, 2, pstar))
    assert report.feasible
    assert not from_pseudo(schedule_solution(report.instance), 2).terms
    assert report.certificate("moment-matrix").verdict == "PSD"
    for level in range(1, 5):
        assert report.certificate(f"covering-{level}").verdict == "PSD"
    # the cardinality matrix never mentions the weight base, so one PSD
    # verdict covers every P; the constraint comparison makes that visible
    assert (
        build_schedule(4, 2, 14).cardinality_constraint()
        == build_schedule(4, 2, 999).cardinality_constraint()
    )
    assert report.certificate("cardinality").verdict == "PSD"
    elapsed = time.monotonic() - started
    ok = elapsed < 120
    _announce(capsys, 8, ok, f"P* = {pstar}, verified in {elapsed:.1f}s")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: property suites
# ---------------------------------------------------------------------------


def test_criterion_9_property_suites(capsys):
    started = time.monotonic()
    rng = random.Random(1009)

    # (i) quadratic_form against the assembled matrix, 100 vectors each
    instances = [
        from_pseudo(
            LatticeVector(
                2, PSEUDO_PROBABILITIES, {0b00: 1, 0b01: "-1/3", 0b10: 1, 0b11: 2}
            ),
            1,
        ),
        from_pseudo(knapsack_solution(3, 256), 2),
        normalized_demand_form(canonical_instance(F(1, 16))),
        decompose(random_moments(4, rng), 2),
    ]
    for form in instances:
        dense = as_fractions(*assemble(form))
        size = form.size()
        for _ in range(100):
            v = [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(size)]
            assert quadratic_form(form, v) == quad_eval(dense, v)

    # (ii) constraint diagonal equals the transform of the shift
    for _ in range(40):
        n = rng.randint(1, 5)
        w = random_moments(n, rng)
        weights = {i + 1: F(rng.randint(-3, 3)) for i in range(n)}
        g = LinearConstraint(
            n, weights, constant=F(rng.randint(-2, 2), rng.randint(1, 3))
        )
        assert constraint_diagonal(g, w) == to_pseudo_probabilities(shift(g, w))

    # (iii) transform roundtrip in both directions
    for _ in range(100):
        n = rng.randint(1, 8)
        w = random_moments(n, rng)
        assert from_pseudo_probabilities(to_pseudo_probabilities(w)) == w
        p = from_dense(
            n,
            PSEUDO_PROBABILITIES,
            [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(1 << n)],
        )
        assert to_pseudo_probabilities(from_pseudo_probabilities(p)) == p

    # (iv) a full disk pass implies the exact oracle agrees
    for _ in range(500):
        size = rng.randint(1, 6)
        rows = [[F(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                v = F(rng.randint(-4, 4), rng.randint(1, 2))
                rows[i][j] = v
                rows[j][i] = v
        for i in range(size):
            radius = sum(abs(rows[i][j]) for j in range(size) if j != i)
            rows[i][i] = radius + F(rng.randint(0, 5), rng.randint(1, 2))
        assert gershgorin(rows).all_nonnegative
        assert is_psd_exact(rows).verdict == "PSD"

    # (v) principal minor scan agrees with the oracle on random 4x4
    # (vi) and every NotPSD witness actually evaluates negative
    witnesses_checked = 0
    for _ in range(500):
        rows = [[F(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                v = F(rng.randint(-3, 3))
                rows[i][j] = v
                rows[j][i] = v
        cert = is_psd_exact(rows)
        assert principal_minors_psd(rows) == (cert.verdict == "PSD")
        if cert.verdict == "NotPSD":
            assert quad_eval(rows, cert.witness) < 0
            witnesses_checked += 1
    for rows in ([[F(0), F(1)], [F(1), F(0)]], [[F(-1)]]):
        cert = is_psd_exact(rows)
        assert cert.verdict == "NotPSD"
        assert quad_eval(rows, cert.witness) < 0
        witnesses_checked += 1
    assert witnesses_checked > 100

    elapsed = time.monotonic() - started
    ok = elapsed < 180
    _announce(
        capsys,
        9,
        ok,
        f"six property suites, {witnesses_checked} witnesses, {elapsed:.1f}s",
    )
    assert ok
