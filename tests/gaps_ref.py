"""Knapsack lifting and brute-force integral optima, kept beside the tests as references.

The gap commands never enumerate 0/1 points: each family's integral
optimum is stated in closed form (one item; one item per block; one job
per group prefix). The tests check those statements against these
enumerations. They also keep the lifted knapsack variant, one always-picked
extra item with demand 1 + 1/P: its solution is the reduced solution
lifted by lift_solution, and its lifted matrices are checked directly at
small n. trace_bound_check, the trace identity and mass bound of the
pivoted knapsack covering form, is acceptance criterion 6's reference.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Union

from momentcert.adf import RankOneTerm, from_pseudo
from momentcert.certify import PivotState, decide_form, gershgorin, pivot_reduce
from momentcert.gaps import (
    GapError,
    InfeasibleParametersError,
    KnapsackGapInstance,
    MkpInstance,
    ScheduleInstance,
    knapsack_constraint,
)
from momentcert.lattice import (
    MOMENTS,
    LatticeVector,
    LinearConstraint,
    RationalLike,
    SubsetIndex,
    max_ground_size,
    rat,
    to_pseudo_probabilities,
)
from momentcert.moments import constraint_diagonal

# Largest ground set the brute-force integral optima will enumerate.
BRUTE_FORCE_MAX_VARS = 20


def lifted_constraint(instance: KnapsackGapInstance) -> LinearConstraint:
    """Covering constraint of the lifted instance, over n + 1 items.

    The extra item is forced (its moment is one after lifting) and
    the demand rises to 1 + 1/P, which is the same constraint the
    reduced instance sees after discounting the forced item.
    """
    weights = {i: 1 for i in range(1, instance.n + 2)}
    return LinearConstraint(
        instance.n + 1, weights, constant=-(1 + 1 / instance.P)
    )


def lift_solution(y: LatticeVector, t: int) -> LatticeVector:
    """Extend a moment vector by one always-picked extra item.

    Every lifted moment forgets the new item: y_I = y'_{I minus the new
    element}, so in particular the new singleton moment is y'_empty and
    unions with the new item copy the old moments. Feasibility of the
    lifted instance at level t follows from feasibility of the reduced
    one, which is what makes the reduction the default certification
    path.
    """
    if y.kind != MOMENTS:
        raise GapError("lift_solution expects a moment vector")
    if t < 0:
        raise GapError(f"level must be nonnegative, got {t}")
    n = y.n
    if n + 1 > max_ground_size():
        raise GapError("lifting would exceed the ground-set cap")
    new = 1 << n
    lifted: dict[int, Fraction] = {}
    for mask, val in y.items():
        lifted[mask] = lifted[mask | new] = val
    return LatticeVector(n + 1, MOMENTS, lifted)


@dataclass
class TraceBoundReport:
    """Trace of the pivoted covering matrix and the feasibility bound.

    trace is exact; bound_holds says whether the empty-set
    pseudo-probability stays below P * z_empty / (2^n - 2), and
    matrix_psd records the oracle verdict that makes the bound binding.
    """

    trace: Fraction
    bound_rhs: Fraction
    bound_holds: bool
    matrix_psd: bool


def trace_bound_check(n: int, P: RationalLike, y: LatticeVector) -> TraceBoundReport:
    """Trace identity and mass bound for the pivoted covering matrix.

    For any moment vector y over n items, pivoting the top rank-one term
    of the level-(n-1) covering form into the empty-set row leaves a
    matrix whose trace is z_empty - (2^n - 2) * p_empty / P, with p the
    pseudo-probabilities of y. A nonnegative trace is forced whenever
    the matrix is PSD, which bounds p_empty by P * z_empty / (2^n - 2).
    matrix_psd comes from decide_form, which drops the zero-coefficient top
    term and decides the Schur complement onto the nonpositive diagonal
    rows whenever those rows plus the terms are fewer than the rows.
    """
    if n < 2:
        raise GapError(f"trace bound needs n >= 2, got {n}")
    if y.kind != MOMENTS or y.n != n:
        raise GapError("expected a moment vector over the instance items")
    Pq = rat(P)
    p = to_pseudo_probabilities(y)
    zp = constraint_diagonal(knapsack_constraint(n, Pq), p)
    form = from_pseudo(zp, n - 1)
    ground = SubsetIndex((1 << n) - 1, n)
    # The top term is kept even at coefficient zero, where from_pseudo drops
    # it: the congruence that clears it is what produces the trace identity,
    # fold or no fold.
    if not form.terms:
        form.terms.append(RankOneTerm(ground, Fraction(0), index=form.index))
    state = PivotState(form)
    pivot_reduce(state, ground, SubsetIndex(0, n))
    # The trace is the sum of the disk centers: the pivot keeps
    # sigma (e_s + m)(e_s + m)^T as a folded term, so the state's diagonal
    # alone would miss sigma * |e_s + m|^2.
    disks = gershgorin(state)
    trace = Fraction(sum(disks.cnum), disks.den)

    # z_empty is the superset sum of the shifted pseudo-probabilities at {}.
    z_empty = sum((val for _, val in zp.items()), Fraction(0))
    rhs = Pq * z_empty / ((1 << n) - 2)
    oracle = decide_form(form)
    return TraceBoundReport(
        trace=trace,
        bound_rhs=rhs,
        bound_holds=p.get(0) <= rhs,
        matrix_psd=oracle.verdict == "PSD",
    )


def _fewest_items(n: int, constraints: list[LinearConstraint]) -> int:
    """Brute-force fewest items of a 0/1 point meeting every constraint."""
    if n > BRUTE_FORCE_MAX_VARS:
        raise GapError(f"brute force is limited to {BRUTE_FORCE_MAX_VARS} items")
    # L > 0, so L * g has the sign of g at every mask
    values = [g.scaled_values(range(1 << n))[1] for g in constraints]
    best = min(
        (mask.bit_count() for mask in range(1 << n) if all(v[mask] >= 0 for v in values)),
        default=None,
    )
    if best is None:
        raise InfeasibleParametersError("no integral point meets the constraints")
    return best


def knapsack_integral_optimum(n: int, P: RationalLike) -> int:
    """Brute-force cheapest 0/1 point covering the demand (always one item)."""
    return _fewest_items(n, [knapsack_constraint(n, P)])


def mkp_integral_optimum(instance: MkpInstance) -> int:
    """Brute-force cheapest 0/1 point meeting every block demand.

    With eps in (0,1) each block needs at least one item, so the value is
    the block count; the enumeration is the promised cross-check.
    """
    demands = [
        instance.demand_constraint(b) for b in range(1, instance.blocks + 1)
    ]
    return _fewest_items(instance.n_items, demands)


def schedule_integral_optimum(instance: ScheduleInstance) -> int:
    """Brute-force cheapest integral covering, enumerated by group counts.

    Jobs inside a group are exchangeable, so only the per-group counts
    matter; (n+1)^n count vectors is small at the supported sizes.
    """
    n = instance.n
    demands = instance.demands
    weights = [instance.P ** i for i in range(1, n + 1)]
    best: Union[int, None] = None
    for counts in product(range(n + 1), repeat=n):
        total = sum(counts)
        if best is not None and total >= best:
            continue
        acc = Fraction(0)
        ok = True
        for level in range(1, n + 1):
            acc += weights[level - 1] * counts[level - 1]
            if acc < demands[level - 1]:
                ok = False
                break
        if ok:
            best = total
    if best is None:
        raise InfeasibleParametersError("no integral point covers the demands")
    return best
