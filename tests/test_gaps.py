"""Gap instance families: knapsack, block demands, scheduling."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import momentcert.certify
from momentcert import (
    MOMENTS,
    PSEUDO_PROBABILITIES,
    GapError,
    InfeasibleParametersError,
    LatticeVector,
    assemble,
    build_knapsack,
    build_mkp,
    build_schedule,
    constraint_diagonal,
    find_min_feasible_P,
    from_pseudo,
    from_pseudo_probabilities,
    instance_from_json,
    instance_to_json,
    is_psd_exact,
    knapsack_constraint,
    knapsack_integral_optimum,
    knapsack_solution,
    lift_solution,
    mkp_integral_optimum,
    mkp_uniform_solution,
    moment_matrix,
    relaxation_objective,
    schedule_integral_optimum,
    schedule_solution,
    shift,
    trace_bound_check,
    verify_knapsack_level,
    verify_mkp,
    verify_schedule,
)
from schedule_ref import covering_certificates

# ---------------------------------------------------------------------------
# knapsack: closed-form solution
# ---------------------------------------------------------------------------


def test_knapsack_solution_two_items():
    p = knapsack_solution(2, 32)
    assert p.get(0b01) == F(4, 31)
    assert p.get(0b10) == F(4, 31)
    assert p.get(0b11) == F(4, 63)
    assert p.get(0b00) == F(1325, 1953)
    assert sum(v for _, v in p.items()) == 1


def test_knapsack_solution_total_mass_is_one():
    for n, P in [(3, 256), (4, 512), (5, 3000)]:
        p = knapsack_solution(n, P)
        assert sum(v for _, v in p.items()) == 1
        assert all(v > 0 for _, v in p.items())


def test_knapsack_solution_rejects_too_small_P():
    with pytest.raises(InfeasibleParametersError):
        knapsack_solution(2, 2)
    with pytest.raises(GapError):
        knapsack_solution(2, 1)


def test_knapsack_integral_optimum_is_one_item():
    assert knapsack_integral_optimum(2, 32) == 1
    assert knapsack_integral_optimum(5, 2048) == 1


# ---------------------------------------------------------------------------
# knapsack: certification
# ---------------------------------------------------------------------------


def test_verify_knapsack_two_items_frozen_numbers():
    report = verify_knapsack_level(2, 32)
    assert report.feasible
    assert report.level == 1
    assert report.objective == F(752, 1953)
    assert report.gap == F(1953, 752)

    covering = report.certificate("covering")
    assert covering.recipe_conclusive
    assert [s.to_json_dict() for s in covering.schedule] == [
        {"H": "{1,2}", "S": "{}"}
    ]
    # every pivoted row has the same disk: center 2^n/P - p_empty/P,
    # radius (2^n - 2) * p_empty / P
    assert covering.final_disks.centers == [F(6487, 62496)] * 3
    assert covering.final_disks.radii == [F(1325, 31248)] * 3
    assert report.certificate("covering-oracle").verdict == "PSD"
    assert report.certificate("moment-matrix").verdict == "PSD"


def test_knapsack_covering_is_decided_on_its_schur_complement(monkeypatch):
    # The level-5 covering form over 6 items is 63 x 63 with one positive
    # term and one nonpositive row ({}), so the oracle sees only the 1 x 1
    # Schur complement; the moment matrix is settled by its disks.
    oracle = momentcert.certify.is_psd_exact
    dims = []

    def spy(rows):
        dims.append(len(rows))
        return oracle(rows)

    monkeypatch.setattr(momentcert.certify, "is_psd_exact", spy)
    report = verify_knapsack_level(6, 2**13)
    assert report.certificate("covering-oracle").verdict == "PSD"
    assert dims == [1]


def test_knapsack_covering_pivot_stays_rank_one(monkeypatch):
    # Folding the top term into {} must keep what the pivot creates as one
    # folded term over all 4095 rows of the level-11 covering form over 12
    # items, so its disks are read in closed form: the only dense matrix
    # built is decide_form's 1 x 1 Schur complement, never a 4095-row one.
    pivot = momentcert.certify.pivot_reduce
    build = momentcert.certify.assemble
    folded, sizes = [], []

    def spy_pivot(state, H, S):
        pivot(state, H, S)
        folded.append([sum(1 for v in term.g_vec if v) for term in state.folded])
        return state

    def spy_assemble(form):
        sizes.append(form.size())
        return build(form)

    monkeypatch.setattr(momentcert.certify, "pivot_reduce", spy_pivot)
    monkeypatch.setattr(momentcert.certify, "assemble", spy_assemble)
    report = verify_knapsack_level(12, 2**25)
    assert report.feasible
    assert report.certificate("covering").recipe_conclusive
    assert folded == [[4095]]
    assert sizes and all(size == 1 for size in sizes)


def test_verify_knapsack_radius_formula_across_sizes():
    for n, k in [(2, 1), (3, 2), (4, 1)]:
        P = k << (2 * n + 1)
        report = verify_knapsack_level(n, P)
        p_empty = knapsack_solution(n, P).get(0)
        expected = ((1 << n) - 2) * p_empty / P
        disks = report.certificate("covering").final_disks
        assert disks.radii == [expected] * len(disks.radii)
        assert report.objective <= F(1, k)


def test_knapsack_objective_identity():
    # the relaxation objective can be read two ways: singleton moments of
    # y, or cardinality-weighted pseudo-probabilities.
    p = knapsack_solution(3, 256)
    y = from_pseudo_probabilities(p)
    singles = sum(y.get(1 << i) for i in range(3))
    assert singles == relaxation_objective(p) == F(7307296, 33314645)


def test_relaxation_objective_requires_pseudo_kind():
    y = from_pseudo_probabilities(knapsack_solution(2, 32))
    with pytest.raises(GapError):
        relaxation_objective(y)


# ---------------------------------------------------------------------------
# knapsack: trace bound and lifting
# ---------------------------------------------------------------------------


def test_trace_bound_on_the_constructed_solution():
    y = from_pseudo_probabilities(knapsack_solution(2, 32))
    report = trace_bound_check(2, 32, y)
    assert report.trace == F(6487, 20832)
    z_empty = shift(knapsack_constraint(2, 32), y).get(0)
    assert report.trace == z_empty - 2 * F(1325, 1953) / 32
    assert report.matrix_psd and report.bound_holds


def test_trace_bound_clamps_random_distributions():
    rng = random.Random(61)
    n = 3
    psd_seen = 0
    for _ in range(30):
        raw = [F(rng.randint(0, 8)) for _ in range(1 << n)]
        total = sum(raw)
        if total == 0:
            continue
        p = LatticeVector.from_dense(
            n, PSEUDO_PROBABILITIES, [v / total for v in raw]
        )
        y = from_pseudo_probabilities(p)
        report = trace_bound_check(n, 70, y)
        if report.matrix_psd:
            psd_seen += 1
            assert report.bound_holds
            assert report.trace >= 0
    assert psd_seen > 0


def test_lift_keeps_old_moments_and_forces_the_new_item():
    p = knapsack_solution(3, 256)
    y = from_pseudo_probabilities(p)
    lifted = lift_solution(y, 1)
    assert lifted.n == 4
    assert lifted.get(0b1000) == 1
    assert lifted.get(0b1001) == y.get(0b0001) == F(7307296, 99943935)
    for mask in range(8):
        assert lifted.get(mask) == y.get(mask)
        assert lifted.get(mask | 0b1000) == y.get(mask)


def test_lifted_solution_stays_feasible_at_the_next_level():
    instance = build_knapsack(3, 256)
    y = from_pseudo_probabilities(knapsack_solution(3, 256))
    lifted = lift_solution(y, 1)
    assert is_psd_exact(moment_matrix(lifted, 2)).verdict == "PSD"
    shifted = shift(instance.lifted_constraint(), lifted)
    assert is_psd_exact(moment_matrix(shifted, 1)).verdict == "PSD"


# ---------------------------------------------------------------------------
# block-demand family
# ---------------------------------------------------------------------------


def test_mkp_uniform_solution_spreads_over_low_cardinality():
    instance = build_mkp(3, 2, "1/16", 2)
    assert instance.n_items == 6
    assert instance.block_members(2) == (3, 4)
    p = mkp_uniform_solution(instance, 1)
    assert p.get(0) == F(1, 22)
    assert p.nonzero_count() == 22
    assert all(m.bit_count() <= 2 for m, _ in p.items())


def test_verify_mkp_small_demand_is_feasible():
    report = verify_mkp(build_mkp(3, 2, "1/16", 2), 1)
    assert report.feasible
    assert report.gap == F(3, 2)
    assert report.objective == F(18, 11)
    labels = [label for label, _ in report.certificates]
    assert labels == [
        "moment-matrix",
        "cardinality",
        "cardinality-oracle",
        "demand-1",
        "demand-1-oracle",
        "demand-2",
        "demand-2-oracle",
        "demand-3",
        "demand-3-oracle",
    ]
    for b in (1, 2, 3):
        assert report.certificate(f"demand-{b}-oracle").verdict == "PSD"


def test_verify_mkp_large_demand_is_refuted():
    instance = build_mkp(3, 2, "1/8", 2)
    report = verify_mkp(instance, 1)
    assert not report.feasible
    assert report.certificate("demand-1-oracle").verdict == "NotPSD"

    # each -oracle entry is what the oracle says of a freshly built matrix,
    # whether it reuses the recipe's fallback (demand-1) or not (cardinality)
    p = mkp_uniform_solution(instance, 1)
    targets = [("cardinality", instance.cardinality_constraint())]
    targets += [(f"demand-{b}", instance.demand_constraint(b)) for b in (1, 2, 3)]
    for label, g in targets:
        fresh = is_psd_exact(assemble(from_pseudo(constraint_diagonal(g, p), 1)))
        assert report.certificate(f"{label}-oracle").to_json_dict() == fresh.to_json_dict()


def test_mkp_integral_optimum_needs_one_item_per_block():
    assert mkp_integral_optimum(build_mkp(3, 2, "1/16", 2)) == 3
    assert mkp_integral_optimum(build_mkp(2, 3, "1/2", 2)) == 2


def test_mkp_rejects_bad_parameters():
    with pytest.raises(GapError):
        build_mkp(3, 2, "0", 2)
    with pytest.raises(GapError):
        build_mkp(3, 2, "17/16", 2)
    with pytest.raises(GapError):
        build_mkp(0, 2, "1/16", 2)


# ---------------------------------------------------------------------------
# scheduling family
# ---------------------------------------------------------------------------


def test_schedule_demands_and_deadlines():
    instance = build_schedule(4, 2, 3)
    assert instance.demands == [F(1), F(4), F(13), F(40)]
    assert instance.deadlines == [F(11), F(44), F(143), F(440)]
    assert instance.jobs == 16
    assert instance.level_cap == 2
    assert instance.group_members(3) == (9, 10, 11, 12)
    # d_l = n * sum_{j<=l} P^j - D_l, by hand at n = 3, P = 5
    instance = build_schedule(3, 1, 5)
    assert instance.demands == [F(1), F(6), F(31)]
    assert instance.deadlines == [F(14), F(84), F(434)]


def test_schedule_covering_is_the_scaled_raw_constraint():
    instance = build_schedule(3, 1, 5)
    for level in (1, 2, 3):
        scaled = instance.covering_constraint(level)
        raw = instance.raw_covering_constraint(level)
        factor = instance.P**level
        assert scaled.support() == raw.support()
        for mask in raw.support():
            assert scaled.coefficient(mask) * factor == raw.coefficient(mask)


def test_schedule_solution_is_uniform_up_to_the_cap():
    instance = build_schedule(4, 2, 3)
    p = schedule_solution(instance)
    assert p.get(0) == F(1, 137)
    assert p.nonzero_count() == 137


def test_schedule_rejects_bad_parameters():
    with pytest.raises(GapError):
        build_schedule(4, 3, 5)  # 4/3 jobs per machine is not integral
    with pytest.raises(GapError):
        build_schedule(6, 2, 5)  # 36 jobs exceed the ground-set cap
    with pytest.raises(GapError):
        build_schedule(5, F(5, 2), 1000)  # 25 jobs exceed it too
    with pytest.raises(GapError):
        build_schedule(4, "1/2", 5)
    with pytest.raises(GapError):
        build_schedule(4, 2, 1)


def test_verify_schedule_at_the_known_feasible_base():
    report = verify_schedule(build_schedule(4, 2, 14))
    assert report.feasible
    assert report.gap == F(2)
    assert report.level == 1
    assert report.objective == F(256, 137)
    assert not from_pseudo(schedule_solution(report.instance), 2).terms
    labels = [label for label, _ in report.certificates]
    assert labels == [
        "moment-matrix",
        "cardinality",
        "covering-1",
        "covering-2",
        "covering-3",
        "covering-4",
    ]


def test_verify_schedule_below_the_threshold_fails():
    report = verify_schedule(build_schedule(4, 2, 3))
    assert not report.feasible
    assert any(
        cert.verdict == "NotPSD"
        for label, cert in report.certificates
        if label.startswith("covering-")
    )


def test_find_min_feasible_base_golden():
    assert find_min_feasible_P(4, 2) == 14


@pytest.mark.parametrize("n, k, pstar", [(2, 1, 6), (3, 1, 31), (4, 4, 5)])
def test_find_min_feasible_base_goldens_agree_with_the_dense_decider(n, k, pstar):
    assert find_min_feasible_P(n, k) == pstar
    # The dense decider finds a NotPSD covering one below the golden, none at it.
    below = [c.verdict for c in covering_certificates(build_schedule(n, k, pstar - 1))]
    at = [c.verdict for c in covering_certificates(build_schedule(n, k, pstar))]
    assert "NotPSD" in below and set(at) == {"PSD"}


def test_schedule_integral_optimum_takes_one_job_per_group():
    assert schedule_integral_optimum(build_schedule(4, 2, 3)) == 4
    assert schedule_integral_optimum(build_schedule(3, 1, 2)) == 3


# ---------------------------------------------------------------------------
# instance plumbing
# ---------------------------------------------------------------------------


def test_a_fresh_import_leaves_the_earlier_instance_classes_collectable():
    # Run in a child process: re-importing the package here would give the
    # other tests' imported names a second generation of classes.
    script = """
import gc, sys, weakref
import momentcert
old = weakref.ref(momentcert.gaps.ScheduleInstance)
for name in [n for n in sys.modules if n == "momentcert" or n.startswith("momentcert.")]:
    del sys.modules[name]
import momentcert
gc.collect()
sys.exit(0 if old() is None else 1)
"""
    src_dir = os.path.dirname(os.path.dirname(momentcert.certify.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src_dir), timeout=60
    )
    assert proc.returncode == 0


def test_instance_json_roundtrip():
    for instance in [
        build_knapsack(3, 256),
        build_mkp(3, 2, "1/16", 2),
        build_schedule(4, 2, 14),
    ]:
        assert instance_from_json(instance_to_json(instance)) == instance


def test_instance_json_rejects_unknown_family():
    with pytest.raises(GapError):
        instance_from_json({"family": "matching", "params": {}})
    with pytest.raises(GapError):
        instance_from_json({"params": {}})
    mkp_params = {"blocks": 3, "items_per_block": 2, "eps": "1/16", "T": 2}
    for blocks in ("x", 3.7, "3", True):
        with pytest.raises(GapError):
            instance_from_json({"family": "mkp", "params": dict(mkp_params, blocks=blocks)})
    with pytest.raises(GapError):
        instance_from_json({"family": "knapsack", "params": {"n": 2.0, "P": "32"}})


def test_gap_report_json_shape():
    data = verify_knapsack_level(2, 32).to_json_dict()
    assert set(data) == {
        "instance",
        "level",
        "feasible",
        "gap",
        "objective",
        "certificates",
    }
    assert data["instance"] == {
        "family": "knapsack",
        "params": {"n": 2, "P": "32"},
    }
    assert data["gap"] == "1953/752"
    assert [c["target"] for c in data["certificates"]] == [
        "moment-matrix",
        "covering",
        "covering-oracle",
    ]
