"""Integrality-gap instance families and their level-wise verifiers.

Three covering-style families ship with the library. Each comes with a
closed-form fractional solution whose moment and constraint matrices can
be certified positive semidefinite exactly, while every 0/1 point that
meets the constraints costs strictly more. The certified feasibility of
the cheap fractional solution therefore pins down an integrality gap.

* knapsack: n items and a single covering constraint sum x_i >= 1/P.
  The solution puts pseudo-probability 2^n / (P|I| - 1) on every
  nonempty subset I, so its objective sum_i y_i is 2^(2n+1)/P at most
  while any integral solution picks a whole item.
* mkp: disjoint blocks of items, each block owing a tiny demand eps,
  under a global cardinality cap T. Fractionally the cap is generous;
  integrally one item per block is forced.
* schedule: n^2 jobs in n groups with geometrically weighted covering
  constraints. The uniform low-cardinality solution is feasible once
  the weight base P is large enough, against an integral cost of n.
  Each prefix covering matrix is invariant under the symmetric groups of
  its job orbits (the groups it weighs, and the remaining jobs), so it
  is decided by its orbit blocks (orbits.decide_orbits), each block by
  the exact oracle; the dense matrix over P_(n/k - 1) is never built. A
  NotPSD block's witness is lifted back to the dense rows.

The lifted variant of the knapsack constraint (one always-picked extra
item, demand 1 + 1/P) is certified by lifting the reduced solution with
lift_solution rather than by a separate construction; a direct check of
the lifted matrices stays available as a cross-check at small n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from typing import Callable, Iterator, Union

from .adf import AlmostDiagonalForm, RankOneTerm, decompose, from_pseudo
from .certify import (
    PivotState,
    PsdCertificate,
    certify_recipe,
    decide_form,
    gershgorin,
    pivot_reduce,
)
from .lattice import (
    MOMENTS,
    PSEUDO_PROBABILITIES,
    ConstraintPolynomial,
    LatticeError,
    LatticeVector,
    RationalLike,
    SubsetIndex,
    check_subset_count,
    enumerate_subsets,
    from_pseudo_probabilities,
    json_int,
    max_ground_size,
    rat,
    rat_str,
    to_pseudo_probabilities,
)
from .moments import constraint_diagonal

# Largest ground set the brute-force integral optima will enumerate.
BRUTE_FORCE_MAX_VARS = 20


class GapError(LatticeError):
    """Invalid argument to a gap-instance operation."""


class InfeasibleParametersError(GapError):
    """The closed-form solution does not exist for these parameters."""


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class GapReport:
    """Verification outcome for one instance at one level.

    certificates is a list of (target, certificate) pairs, one per matrix
    examined, in a fixed order so serialized reports are reproducible.
    """

    instance: Instance
    level: int
    gap: Fraction
    objective: Fraction
    certificates: list[tuple[str, PsdCertificate]]

    @property
    def feasible(self) -> bool:
        """The solution is feasible at this level: every listed matrix is PSD."""
        return all(cert.verdict == "PSD" for _, cert in self.certificates)

    def certificate(self, target: str) -> PsdCertificate:
        for label, cert in self.certificates:
            if label == target:
                return cert
        raise GapError(f"no certificate for target {target!r}")

    def to_json_dict(self, include_trace: bool = False) -> dict:
        certs = []
        for label, cert in self.certificates:
            entry = {"target": label}
            entry.update(cert.to_json_dict(include_trace=include_trace))
            certs.append(entry)
        return {
            "instance": instance_to_json(self.instance),
            "level": self.level,
            "feasible": self.feasible,
            "gap": rat_str(self.gap),
            "objective": rat_str(self.objective),
            "certificates": certs,
        }


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


# ---------------------------------------------------------------------------
# knapsack family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnapsackGapInstance:
    """n items, one covering constraint sum x_i >= 1/P with P > 1."""

    n: int
    P: Fraction

    family = "knapsack"

    def params(self) -> dict:
        return {"n": self.n, "P": rat_str(self.P)}

    def solution(self, t: int) -> LatticeVector:
        """The closed-form solution; it is the same at every level t.

        It has 2^n entries and is certified at level n, so P_n's size is
        refused before it is built, for gap knapsack and decompose alike.
        """
        check_subset_count(self.n, self.n)
        return knapsack_solution(self.n, self.P)

    @property
    def demand(self) -> Fraction:
        return 1 / self.P

    def lifted_constraint(self) -> ConstraintPolynomial:
        """Covering constraint of the lifted instance, over n + 1 items.

        The extra item is forced (its moment is one after lifting) and
        the demand rises to 1 + 1/P, which is the same constraint the
        reduced instance sees after discounting the forced item.
        """
        weights = {i: 1 for i in range(1, self.n + 2)}
        return ConstraintPolynomial.linear(
            self.n + 1, weights, constant=-(1 + self.demand)
        )


def build_knapsack(n: int, P: RationalLike) -> KnapsackGapInstance:
    """The one place the knapsack parameters are checked."""
    Pq = rat(P)
    if n < 1:
        raise GapError(f"item count must be positive, got {n}")
    if n > max_ground_size():
        raise GapError(f"item count {n} exceeds the ground-set cap")
    if Pq <= 1:
        raise GapError(f"weight parameter must exceed 1, got {rat_str(Pq)}")
    return KnapsackGapInstance(n, Pq)


def knapsack_constraint(n: int, P: RationalLike) -> ConstraintPolynomial:
    """The covering polynomial sum_i x_i - 1/P over n items."""
    Pq = build_knapsack(n, P).P
    weights = {i: 1 for i in range(1, n + 1)}
    return ConstraintPolynomial.linear(n, weights, constant=-1 / Pq)


def knapsack_solution(n: int, P: RationalLike) -> LatticeVector:
    """Closed-form pseudo-probabilities 2^n / (P|I| - 1) on nonempty I.

    The empty set receives whatever is left of total mass one; when that
    leftover is negative the parameters cannot carry the solution and
    InfeasibleParametersError is raised. P >= 2^(2n+1) always suffices.
    """
    Pq = build_knapsack(n, P).P
    scale = Fraction(1 << n)
    entries: dict[int, Fraction] = {}
    total = Fraction(0)
    for mask in range(1, 1 << n):
        val = scale / (Pq * mask.bit_count() - 1)
        entries[mask] = val
        total += val
    rest = 1 - total
    if rest < 0:
        raise InfeasibleParametersError(
            f"nonempty subsets already carry mass {rat_str(total)} > 1 "
            f"at n={n}, P={rat_str(Pq)}"
        )
    entries[0] = rest
    return LatticeVector(n, PSEUDO_PROBABILITIES, entries)


def relaxation_objective(p: LatticeVector) -> Fraction:
    """Sum of the singleton moments, computed as sum_I |I| * p_I."""
    if p.kind != PSEUDO_PROBABILITIES:
        raise GapError("objective expects a pseudo-probability vector")
    return sum(
        (Fraction(mask.bit_count()) * val for mask, val in p.items()),
        Fraction(0),
    )


def _recipe_and_oracle(
    label: str, form: AlmostDiagonalForm, schedule: Union[list, None] = None
) -> list[tuple[str, PsdCertificate]]:
    """The (label, recipe) and (label-oracle, oracle) certificates of a form.

    When the recipe fell back to the oracle, that decision is the oracle
    entry, so no matrix is decided twice.
    """
    recipe = certify_recipe(form, schedule=schedule)
    if recipe.recipe_conclusive:
        oracle = decide_form(form)
    else:
        oracle = PsdCertificate(recipe.verdict, recipe.method, witness=recipe.witness)
    return [(label, recipe), (f"{label}-oracle", oracle)]


def verify_knapsack_level(n: int, P: RationalLike) -> GapReport:
    """Certify the closed-form solution feasible at level n - 1.

    The full moment matrix is settled by the sign of the
    pseudo-probabilities; the shifted covering matrix is certified twice,
    once by the single pivot that folds the top rank-one term into the
    empty-set row and once by decide_form. The covering form is D + c g g^T
    with c > 0 and one nonpositive diagonal row ({}), so decide_form hands
    the exact oracle its 1 x 1 Schur complement onto that row, not the
    (2^n - 1)-row matrix. The reported gap is the integral optimum (one
    item) over the relaxation objective.
    """
    if n < 2:
        raise GapError(f"level verification needs n >= 2, got {n}")
    instance = build_knapsack(n, P)
    # solution() refuses P_n, which decompose(y, n) below enumerates,
    # before the solution and the transform build their 2^n lists.
    p = instance.solution(n - 1)
    y = from_pseudo_probabilities(p)
    g = knapsack_constraint(n, instance.P)

    moment_cert = certify_recipe(decompose(y, n))

    zform = from_pseudo(constraint_diagonal(g, p), n - 1)
    fold_top = [(SubsetIndex((1 << n) - 1, n), SubsetIndex(0, n))]

    objective = relaxation_objective(p)
    return GapReport(
        instance=instance,
        level=n - 1,
        gap=1 / objective,
        objective=objective,
        certificates=[("moment-matrix", moment_cert)]
        + _recipe_and_oracle("covering", zform, fold_top),
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
    trace = sum(gershgorin(state).centers, Fraction(0))

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


def _fewest_items(n: int, constraints: list[ConstraintPolynomial]) -> int:
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


# ---------------------------------------------------------------------------
# multi-knapsack family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MkpInstance:
    """Disjoint blocks of items, per-block demand eps, cardinality cap T."""

    blocks: int
    items_per_block: int
    eps: Fraction
    T: int

    family = "mkp"

    def params(self) -> dict:
        return {
            "blocks": self.blocks,
            "items_per_block": self.items_per_block,
            "eps": rat_str(self.eps),
            "T": self.T,
        }

    def solution(self, t: int) -> LatticeVector:
        return mkp_uniform_solution(self, t)

    @property
    def n_items(self) -> int:
        return self.blocks * self.items_per_block

    def block_members(self, block: int) -> tuple[int, ...]:
        if not 1 <= block <= self.blocks:
            raise GapError(f"block {block} out of range")
        start = (block - 1) * self.items_per_block + 1
        return tuple(range(start, start + self.items_per_block))

    def cardinality_constraint(self) -> ConstraintPolynomial:
        weights = {i: -1 for i in range(1, self.n_items + 1)}
        return ConstraintPolynomial.linear(self.n_items, weights, constant=self.T)

    def demand_constraint(self, block: int) -> ConstraintPolynomial:
        weights = {i: 1 for i in self.block_members(block)}
        return ConstraintPolynomial.linear(self.n_items, weights, constant=-self.eps)


def build_mkp(
    blocks: int, items_per_block: int, eps: RationalLike, T: int
) -> MkpInstance:
    epsq = rat(eps)
    if blocks < 1 or items_per_block < 1:
        raise GapError("block structure must be nonempty")
    if blocks * items_per_block > max_ground_size():
        raise GapError("item count exceeds the ground-set cap")
    if not 0 < epsq < 1:
        raise GapError(f"demand eps must lie in (0,1), got {rat_str(epsq)}")
    if T < 1:
        raise GapError(f"cardinality cap must be positive, got {T}")
    return MkpInstance(blocks, items_per_block, epsq, T)


def uniform_low_cardinality(n: int, cap: int) -> LatticeVector:
    """Uniform pseudo-probabilities over all subsets of cardinality <= cap."""
    index = enumerate_subsets(n, cap)
    alpha = Fraction(1, len(index))
    return LatticeVector(
        n, PSEUDO_PROBABILITIES, {s.bits: alpha for s in index}
    )


def mkp_uniform_solution(instance: MkpInstance, t: int) -> LatticeVector:
    """The uniform solution spread over P_{t+1}; needs t + 1 <= item count."""
    if t < 0:
        raise GapError(f"level must be nonnegative, got {t}")
    if t + 1 > instance.n_items:
        raise GapError(
            f"level cap {t + 1} exceeds the item count {instance.n_items}"
        )
    return uniform_low_cardinality(instance.n_items, t + 1)


def mkp_integral_optimum(instance: MkpInstance) -> int:
    """Brute-force cheapest 0/1 point meeting every block demand.

    With eps in (0,1) each block needs at least one item, so the value is
    the block count; the enumeration is the promised cross-check.
    """
    demands = [
        instance.demand_constraint(b) for b in range(1, instance.blocks + 1)
    ]
    return _fewest_items(instance.n_items, demands)


def verify_mkp(instance: MkpInstance, t: int) -> GapReport:
    """Certify the uniform solution against all constraint matrices.

    The moment matrix and the cardinality matrix reduce to nonnegative
    diagonals, so the recipe settles them by disks alone. Each block
    demand matrix goes through the recipe and the exact oracle. The gap
    compares the forced integral cost (one item per block) against the
    cardinality cap.
    """
    p = mkp_uniform_solution(instance, t)
    moment_cert = certify_recipe(from_pseudo(p, t + 1))
    certificates: list[tuple[str, PsdCertificate]] = [
        ("moment-matrix", moment_cert)
    ]
    targets = [("cardinality", instance.cardinality_constraint())]
    targets += [
        (f"demand-{b}", instance.demand_constraint(b))
        for b in range(1, instance.blocks + 1)
    ]
    for label, g in targets:
        certificates += _recipe_and_oracle(
            label, from_pseudo(constraint_diagonal(g, p), t)
        )

    objective = relaxation_objective(p)
    return GapReport(
        instance=instance,
        level=t,
        gap=Fraction(instance.blocks, instance.T),
        objective=objective,
        certificates=certificates,
    )


# ---------------------------------------------------------------------------
# scheduling family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleInstance:
    """n^2 jobs in n groups; group i carries covering weight P^i.

    The covering demand of the first l groups is D_l = sum_{j<=l} P^(j-1),
    matching deadlines d_l = n * sum_{j<=l} P^j - sum_{j<=l} P^(j-1) in
    the machine-scheduling reading. The cardinality cap is T = n/k and
    the integral optimum is n, one job per group prefix.
    """

    n: int
    k: Fraction
    P: Fraction

    family = "schedule"

    def params(self) -> dict:
        return {"n": self.n, "k": rat_str(self.k), "P": rat_str(self.P)}

    def solution(self, t: int) -> LatticeVector:
        """The uniform solution over P_{n/k}; it is the same at every level t."""
        return schedule_solution(self)

    @property
    def jobs(self) -> int:
        return self.n * self.n

    @property
    def level_cap(self) -> int:
        cap = Fraction(self.n) / self.k
        return int(cap)

    @property
    def demands(self) -> list[Fraction]:
        out = []
        acc = Fraction(0)
        for j in range(1, self.n + 1):
            acc += self.P ** (j - 1)
            out.append(acc)
        return out

    @property
    def deadlines(self) -> list[Fraction]:
        """d_l = n * sum_{j<=l} P^j - D_l, which is (n*P - 1) * D_l."""
        return [(self.n * self.P - 1) * D for D in self.demands]

    def group_members(self, group: int) -> tuple[int, ...]:
        if not 1 <= group <= self.n:
            raise GapError(f"group {group} out of range")
        start = (group - 1) * self.n + 1
        return tuple(range(start, start + self.n))

    def cardinality_constraint(self) -> ConstraintPolynomial:
        weights = {v: -1 for v in range(1, self.jobs + 1)}
        return ConstraintPolynomial.linear(self.jobs, weights, constant=self.level_cap)

    def covering_constraint(self, level: int) -> ConstraintPolynomial:
        """Prefix covering constraint, scaled down by P^level.

        The raw constraint weights group i by P^i against demand D_level;
        the P^(-level) scaling keeps every coefficient at most one, which
        is what the certification matrices are built from. Scaling by a
        positive constant does not move the PSD verdict.
        """
        raw = self.raw_covering_constraint(level)
        scale = self.P ** (-level)
        return ConstraintPolynomial(
            self.jobs, {mask: raw.coefficient(mask) * scale for mask in raw.support()}
        )

    def raw_covering_constraint(self, level: int) -> ConstraintPolynomial:
        """Prefix covering constraint: group i weighs P^i, demand D_level."""
        if not 1 <= level <= self.n:
            raise GapError(f"covering level {level} out of range")
        weights: dict[int, Fraction] = {}
        for i in range(1, level + 1):
            for v in self.group_members(i):
                weights[v] = self.P ** i
        return ConstraintPolynomial.linear(
            self.jobs, weights, constant=-self.demands[level - 1]
        )


def build_schedule(n: int, k: RationalLike, P: RationalLike) -> ScheduleInstance:
    kq = rat(k)
    Pq = rat(P)
    if n < 1:
        raise GapError(f"group count must be positive, got {n}")
    if n * n > max_ground_size():
        raise GapError(f"job count {n * n} exceeds the ground-set cap")
    if kq < 1:
        raise GapError(f"invalid-argument: k must be at least 1, got {rat_str(kq)}")
    cap = Fraction(n) / kq
    if cap.denominator != 1:
        raise GapError(
            f"invalid-argument: n/k must be integral, got {rat_str(cap)}"
        )
    if Pq <= 1:
        raise GapError(f"weight base must exceed 1, got {rat_str(Pq)}")
    return ScheduleInstance(n, kq, Pq)


def schedule_solution(instance: ScheduleInstance) -> LatticeVector:
    """Uniform pseudo-probabilities over P_{n/k} of the job set."""
    return uniform_low_cardinality(instance.jobs, instance.level_cap)


@lru_cache(maxsize=None)
def _sets_above(jobs: int, cap: int) -> tuple[int, ...]:
    """How many sets of P_cap contain a fixed set of s jobs, for s <= 2 * cap.

    Over |P_cap| it is Y(s), the uniform solution's moment at any s-set;
    it depends on neither the weight base nor the covering level.
    """
    return tuple(
        sum(comb(jobs - s, j) for j in range(cap - s + 1)) for s in range(2 * cap + 1)
    )


def _covering_orbits(
    instance: ScheduleInstance, level: int
) -> tuple[list[tuple[int, ...]], Callable[[tuple[int, ...]], int]]:
    """The orbits of covering-level and its moments, scaled to integers.

    Covering-l is the moment matrix at level cap - 1 of the uniform
    solution shifted by covering_constraint(l), sum_j w_j x_j - D over the
    jobs of groups j <= l. Its orbits are those l groups and the jobs of
    the later groups (weight 0), and its moment at a set with per-orbit
    counts c is Y(s) (W - D) + Y(s+1) (sum_j w_j n - W), with s = sum(c)
    and W = sum_j w_j c_j. With P = a/b the moments are taken times
    |P_cap| a^l, a positive factor that makes them integers: Y becomes
    _sets_above, w_j becomes a^j b^(l-j) and D becomes
    sum_j a^(j-1) b^(l-j+1).
    """
    n, a, b = instance.n, instance.P.numerator, instance.P.denominator
    Y = _sets_above(instance.jobs, instance.level_cap)
    weights = [a**j * b ** (level - j) for j in range(1, level + 1)] + [0]
    demand = sum(a ** (j - 1) * b ** (level - j + 1) for j in range(1, level + 1))
    full = n * sum(weights)
    orbits = [instance.group_members(j) for j in range(1, level + 1)]
    orbits.append(tuple(range(level * n + 1, instance.jobs + 1)))
    if not orbits[-1]:
        orbits.pop()

    def moment(c: tuple[int, ...]) -> int:
        s = sum(c)
        W = sum(w * cj for w, cj in zip(weights, c))
        return Y[s] * (W - demand) + Y[s + 1] * (full - W)

    return orbits, moment


def _covering_certificates(instance: ScheduleInstance) -> Iterator[PsdCertificate]:
    """Orbit-block certificates of the prefix covering matrices, level 1 up.

    A generator, so a caller that stops at the first non-PSD verdict
    decides no further matrices.
    """
    # Imported on first use: only this family needs it, and without a
    # bytecode cache every fresh import of the package would compile it.
    from .orbits import decide_orbits

    for level in range(1, instance.n + 1):
        orbits, moment = _covering_orbits(instance, level)
        yield decide_orbits(orbits, instance.jobs, instance.level_cap - 1, moment)


def verify_schedule(instance: ScheduleInstance) -> GapReport:
    """Certify the uniform solution for one scheduling instance.

    The moment matrix at the cap level decomposes to a plain nonnegative
    diagonal (no rank-one terms survive, since no pseudo-probability
    lives above the cap), and the cardinality matrix is a nonnegative
    diagonal for every P. Each prefix covering matrix is decided by its
    orbit blocks. Feasibility is the conjunction; the gap is the
    integral cost n over the cap n/k, which is k.
    """
    p = schedule_solution(instance)
    cap = instance.level_cap
    moment_cert = certify_recipe(decompose(from_pseudo_probabilities(p), cap))
    certificates: list[tuple[str, PsdCertificate]] = [
        ("moment-matrix", moment_cert)
    ]

    cardinality_form = from_pseudo(
        constraint_diagonal(instance.cardinality_constraint(), p), cap - 1
    )
    cardinality_cert = certify_recipe(cardinality_form)
    certificates.append(("cardinality", cardinality_cert))
    for level, cert in enumerate(_covering_certificates(instance), start=1):
        certificates.append((f"covering-{level}", cert))

    objective = relaxation_objective(p)
    return GapReport(
        instance=instance,
        level=cap - 1,
        gap=Fraction(instance.n) / Fraction(instance.level_cap),
        objective=objective,
        certificates=certificates,
    )


def find_min_feasible_P(n: int, k: RationalLike) -> int:
    """Smallest integer weight base P >= 2 with all coverings PSD.

    Doubles from 2 until a feasible base appears, then bisects; the
    moment and cardinality matrices never depend on P, so only the
    covering matrices are consulted. The search is guarded against
    running away when no feasible base exists below 2^40.
    """

    def coverings_psd(P: int) -> bool:
        certs = _covering_certificates(build_schedule(n, k, P))
        return all(cert.verdict == "PSD" for cert in certs)

    hi = 2
    while not coverings_psd(hi):
        hi *= 2
        if hi > 1 << 40:
            raise GapError("no feasible integer base below 2^40")
    if hi == 2:
        return 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if coverings_psd(mid):
            hi = mid
        else:
            lo = mid
    return hi


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


# ---------------------------------------------------------------------------
# instance plumbing
# ---------------------------------------------------------------------------

# Quoted, so that typing's cache of this Union holds names, not classes.
# Holding the classes, it kept each earlier import of this module, and the
# modules it imports, alive after a fresh import of the package
# (perfbench/run.py imports it afresh for each set-up).
Instance = Union["KnapsackGapInstance", "MkpInstance", "ScheduleInstance"]


def instance_to_json(instance: Instance) -> dict:
    return {"family": instance.family, "params": instance.params()}


def instance_from_json(data: dict) -> Instance:
    try:
        family = data["family"]
        params = data["params"]
    except (KeyError, TypeError) as exc:
        raise GapError(f"malformed instance payload: {exc}") from exc
    try:
        if family == "knapsack":
            return build_knapsack(json_int(params["n"]), rat(params["P"]))
        if family == "mkp":
            return build_mkp(
                json_int(params["blocks"]),
                json_int(params["items_per_block"]),
                rat(params["eps"]),
                json_int(params["T"]),
            )
        if family == "schedule":
            return build_schedule(
                json_int(params["n"]), rat(params["k"]), rat(params["P"])
            )
    except LatticeError:  # the builders' own errors, kept as raised
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise GapError(f"malformed instance payload: {exc}") from exc
    raise GapError(f"unknown instance family {family!r}")

