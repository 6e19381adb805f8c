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

The lifted variant of the knapsack constraint (one always-picked extra
item, demand 1 + 1/P) is certified by lifting the reduced solution with
lift_solution rather than by a separate construction; a direct check of
the lifted matrices stays available as a cross-check at small n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterator, Union

from .adf import RankOneTerm, assemble, decompose, from_pseudo, g_vector
from .certify import PivotState, PsdCertificate, certify_recipe, is_psd_exact, pivot_reduce
from .lattice import (
    MOMENTS,
    PSEUDO_PROBABILITIES,
    ConstraintPolynomial,
    LatticeError,
    LatticeVector,
    RationalLike,
    SubsetIndex,
    enumerate_subsets,
    from_pseudo_probabilities,
    max_ground_size,
    rat,
    rat_str,
)
from .moments import constraint_diagonal, shift, to_pseudo_probabilities

# Dense transforms allocate 2^N rationals; above this many ground elements
# the verifiers stay on the sparse pseudo-probability side throughout.
DENSE_TRANSFORM_MAX_N = 20

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
    extras carries family-specific objects for callers and tests; it is
    not serialized.
    """

    family: str
    params: dict
    level: int
    feasible: bool
    gap: Fraction
    objective: Fraction
    certificates: list[tuple[str, PsdCertificate]]
    extras: dict = field(default_factory=dict)

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
            "instance": {"family": self.family, "params": dict(self.params)},
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

    @property
    def demand(self) -> Fraction:
        return 1 / self.P

    def constraint(self) -> ConstraintPolynomial:
        return knapsack_constraint(self.n, self.P)

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


def _check_knapsack_params(n: int, P: Fraction) -> None:
    if n < 1:
        raise GapError(f"item count must be positive, got {n}")
    if n > max_ground_size():
        raise GapError(f"item count {n} exceeds the ground-set cap")
    if P <= 1:
        raise GapError(f"weight parameter must exceed 1, got {rat_str(P)}")


def build_knapsack(n: int, P: RationalLike) -> KnapsackGapInstance:
    Pq = rat(P)
    _check_knapsack_params(n, Pq)
    return KnapsackGapInstance(n, Pq)


def knapsack_constraint(n: int, P: RationalLike) -> ConstraintPolynomial:
    """The covering polynomial sum_i x_i - 1/P over n items."""
    Pq = rat(P)
    _check_knapsack_params(n, Pq)
    weights = {i: 1 for i in range(1, n + 1)}
    return ConstraintPolynomial.linear(n, weights, constant=-1 / Pq)


def knapsack_solution(n: int, P: RationalLike) -> LatticeVector:
    """Closed-form pseudo-probabilities 2^n / (P|I| - 1) on nonempty I.

    The empty set receives whatever is left of total mass one; when that
    leftover is negative the parameters cannot carry the solution and
    InfeasibleParametersError is raised. P >= 2^(2n+1) always suffices.
    """
    Pq = rat(P)
    _check_knapsack_params(n, Pq)
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


def verify_knapsack_level(n: int, P: RationalLike) -> GapReport:
    """Certify the closed-form solution feasible at level n - 1.

    The full moment matrix is settled by the sign of the
    pseudo-probabilities; the shifted covering matrix is certified twice,
    once by the single pivot that folds the top rank-one term into the
    empty-set row and once by the exact oracle. The reported gap is the
    integral optimum (one item) over the relaxation objective.
    """
    if n < 2:
        raise GapError(f"level verification needs n >= 2, got {n}")
    Pq = rat(P)
    p = knapsack_solution(n, Pq)
    y = from_pseudo_probabilities(p)
    g = knapsack_constraint(n, Pq)

    moment_cert = certify_recipe(decompose(y, n))

    zp = constraint_diagonal(g, p)
    zform = from_pseudo(zp, n - 1)
    ground = SubsetIndex((1 << n) - 1, n)
    origin = SubsetIndex(0, n)
    recipe = certify_recipe(zform, schedule=[(ground, origin)])
    oracle = is_psd_exact(assemble(zform))

    objective = relaxation_objective(p)
    feasible = all(
        cert.verdict == "PSD" for cert in (moment_cert, recipe, oracle)
    )
    return GapReport(
        family="knapsack",
        params={"n": n, "P": rat_str(Pq)},
        level=n - 1,
        feasible=feasible,
        gap=1 / objective,
        objective=objective,
        certificates=[
            ("moment-matrix", moment_cert),
            ("covering", recipe),
            ("covering-oracle", oracle),
        ],
        extras={"y_pseudo": p, "z_pseudo": zp, "constraint": g},
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
    low = (1 << n) - 1
    dense = y.to_dense()
    lifted = [dense[mask & low] for mask in range(1 << (n + 1))]
    return LatticeVector.from_dense(n + 1, MOMENTS, lifted)


def trace_bound_check(n: int, P: RationalLike, y: LatticeVector) -> TraceBoundReport:
    """Trace identity and mass bound for the pivoted covering matrix.

    For any moment vector y over n items, pivoting the top rank-one term
    of the level-(n-1) covering form into the empty-set row leaves a
    matrix whose trace is z_empty - (2^n - 2) * p_empty / P, with p the
    pseudo-probabilities of y. A nonnegative trace is forced whenever
    the matrix is PSD, which bounds p_empty by P * z_empty / (2^n - 2).
    """
    if n < 2:
        raise GapError(f"trace bound needs n >= 2, got {n}")
    if y.kind != MOMENTS or y.n != n:
        raise GapError("expected a moment vector over the instance items")
    Pq = rat(P)
    g = knapsack_constraint(n, Pq)
    z = shift(g, y)
    zp = to_pseudo_probabilities(z)
    form = from_pseudo(zp, n - 1)
    ground = SubsetIndex((1 << n) - 1, n)
    # The top term is kept even at coefficient zero, where from_pseudo drops
    # it: the congruence that clears it is what produces the trace identity,
    # fold or no fold.
    if not form.terms:
        form.terms.append(RankOneTerm(ground, Fraction(0), g_vector(ground, n - 1)))
    state = PivotState(form)
    pivot_reduce(state, ground, SubsetIndex(0, n))
    trace = sum((state.working[i][i] for i in range(form.size())), Fraction(0))

    p_empty = to_pseudo_probabilities(y).get(0)
    rhs = Pq * z.get(0) / ((1 << n) - 2)
    oracle = is_psd_exact(assemble(form))
    return TraceBoundReport(
        trace=trace,
        bound_rhs=rhs,
        bound_holds=p_empty <= rhs,
        matrix_psd=oracle.verdict == "PSD",
    )


def knapsack_integral_optimum(n: int, P: RationalLike) -> int:
    """Brute-force cheapest 0/1 point covering the demand (always one item)."""
    if n > BRUTE_FORCE_MAX_VARS:
        raise GapError(f"brute force is limited to {BRUTE_FORCE_MAX_VARS} items")
    g = knapsack_constraint(n, P)
    best: Union[int, None] = None
    for mask in range(1 << n):
        if g.value_at(mask) >= 0:
            card = mask.bit_count()
            if best is None or card < best:
                best = card
    if best is None:
        raise InfeasibleParametersError("no integral point covers the demand")
    return best


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
    n = instance.n_items
    if n > BRUTE_FORCE_MAX_VARS:
        raise GapError(f"brute force is limited to {BRUTE_FORCE_MAX_VARS} items")
    demands = [
        instance.demand_constraint(b) for b in range(1, instance.blocks + 1)
    ]
    best: Union[int, None] = None
    for mask in range(1 << n):
        if all(g.value_at(mask) >= 0 for g in demands):
            card = mask.bit_count()
            if best is None or card < best:
                best = card
    if best is None:
        raise InfeasibleParametersError("no integral point meets the demands")
    return best


def verify_mkp(instance: MkpInstance, t: int) -> GapReport:
    """Certify the uniform solution against all constraint matrices.

    The moment matrix and the cardinality matrix reduce to nonnegative
    diagonals, so the recipe settles them by disks alone. Each block
    demand matrix goes through the recipe and, separately, the exact
    oracle; the oracle entries are what feasibility is read from when
    the recipe stays inconclusive. The gap compares the forced integral
    cost (one item per block) against the cardinality cap.
    """
    p = mkp_uniform_solution(instance, t)
    moment_cert = certify_recipe(from_pseudo(p, t + 1))
    certificates: list[tuple[str, PsdCertificate]] = [
        ("moment-matrix", moment_cert)
    ]
    verdicts = [moment_cert.verdict]

    targets = [("cardinality", instance.cardinality_constraint())]
    targets += [
        (f"demand-{b}", instance.demand_constraint(b))
        for b in range(1, instance.blocks + 1)
    ]
    for label, g in targets:
        zform = from_pseudo(constraint_diagonal(g, p), t)
        recipe = certify_recipe(zform)
        oracle = is_psd_exact(assemble(zform))
        certificates.append((label, recipe))
        certificates.append((f"{label}-oracle", oracle))
        verdicts.append(oracle.verdict)

    objective = relaxation_objective(p)
    feasible = all(v == "PSD" for v in verdicts)
    return GapReport(
        family="mkp",
        params={
            "blocks": instance.blocks,
            "items_per_block": instance.items_per_block,
            "eps": rat_str(instance.eps),
            "T": instance.T,
        },
        level=t,
        feasible=feasible,
        gap=Fraction(instance.blocks, instance.T),
        objective=objective,
        extras={"p": p},
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
        out = []
        weight = Fraction(0)
        demand = Fraction(0)
        for j in range(1, self.n + 1):
            weight += self.P ** j
            demand += self.P ** (j - 1)
            out.append(self.n * weight - demand)
        return out

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
        if not 1 <= level <= self.n:
            raise GapError(f"covering level {level} out of range")
        scale = self.P ** (-level)
        weights: dict[int, Fraction] = {}
        for i in range(1, level + 1):
            wi = self.P ** (i - level)
            for v in self.group_members(i):
                weights[v] = wi
        return ConstraintPolynomial.linear(
            self.jobs, weights, constant=-self.demands[level - 1] * scale
        )

    def raw_covering_constraint(self, level: int) -> ConstraintPolynomial:
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


def _sparse_moment_rows(
    zp: LatticeVector, t: int
) -> tuple[list[SubsetIndex], list[list[Fraction]]]:
    """Moment matrix rows at level t from a sparse pseudo vector.

    Entry (I, J) is the superset sum of the pseudo-probabilities over
    I union J; iterating the nonzero pseudo entries per matrix entry
    avoids any dense 2^N pass, which matters once N passes
    DENSE_TRANSFORM_MAX_N.
    """
    index = enumerate_subsets(zp.n, t)
    nonzero = list(zp.items())
    rows = []
    for a in index:
        row = []
        for b in index:
            u = a.bits | b.bits
            acc = Fraction(0)
            for mask, val in nonzero:
                if u & ~mask == 0:
                    acc += val
            row.append(acc)
        rows.append(row)
    return index, rows


def _covering_certificates(
    instance: ScheduleInstance, p: LatticeVector
) -> Iterator[PsdCertificate]:
    """Oracle certificates of the prefix covering matrices, level 1 up.

    A generator, so a caller that stops at the first non-PSD verdict
    decides no further matrices.
    """
    for level in range(1, instance.n + 1):
        zp = constraint_diagonal(instance.covering_constraint(level), p)
        _, rows = _sparse_moment_rows(zp, instance.level_cap - 1)
        yield is_psd_exact(rows)


def verify_schedule(instance: ScheduleInstance) -> GapReport:
    """Certify the uniform solution for one scheduling instance.

    The moment matrix at the cap level decomposes to a plain nonnegative
    diagonal (no rank-one terms survive, since no pseudo-probability
    lives above the cap), and the cardinality matrix is a nonnegative
    diagonal for every P. Each prefix covering matrix is decided by the
    exact oracle. Feasibility is the conjunction; the gap is the
    integral cost n over the cap n/k, which is k.
    """
    p = schedule_solution(instance)
    cap = instance.level_cap
    if instance.jobs <= DENSE_TRANSFORM_MAX_N:
        y = from_pseudo_probabilities(p)
        moment_form = decompose(y, cap)
    else:
        moment_form = from_pseudo(p, cap)
    moment_cert = certify_recipe(moment_form)
    certificates: list[tuple[str, PsdCertificate]] = [
        ("moment-matrix", moment_cert)
    ]
    verdicts = [moment_cert.verdict]

    cardinality_form = from_pseudo(
        constraint_diagonal(instance.cardinality_constraint(), p), cap - 1
    )
    cardinality_cert = certify_recipe(cardinality_form)
    certificates.append(("cardinality", cardinality_cert))
    verdicts.append(cardinality_cert.verdict)

    for level, cert in enumerate(_covering_certificates(instance, p), start=1):
        certificates.append((f"covering-{level}", cert))
        verdicts.append(cert.verdict)

    objective = relaxation_objective(p)
    return GapReport(
        family="schedule",
        params={
            "n": instance.n,
            "k": rat_str(instance.k),
            "P": rat_str(instance.P),
        },
        level=cap - 1,
        feasible=all(v == "PSD" for v in verdicts),
        gap=Fraction(instance.n) / Fraction(instance.level_cap),
        objective=objective,
        extras={
            "p": p,
            "moment_terms_empty": not moment_form.terms,
        },
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
        instance = build_schedule(n, k, P)
        certs = _covering_certificates(instance, schedule_solution(instance))
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

Instance = Union[KnapsackGapInstance, MkpInstance, ScheduleInstance]


def instance_to_json(instance: Instance) -> dict:
    if isinstance(instance, KnapsackGapInstance):
        params: dict = {"n": instance.n, "P": rat_str(instance.P)}
        family = "knapsack"
    elif isinstance(instance, MkpInstance):
        params = {
            "blocks": instance.blocks,
            "items_per_block": instance.items_per_block,
            "eps": rat_str(instance.eps),
            "T": instance.T,
        }
        family = "mkp"
    elif isinstance(instance, ScheduleInstance):
        params = {
            "n": instance.n,
            "k": rat_str(instance.k),
            "P": rat_str(instance.P),
        }
        family = "schedule"
    else:
        raise GapError(f"not an instance: {instance!r}")
    return {"family": family, "params": params}


def instance_from_json(data: dict) -> Instance:
    try:
        family = data["family"]
        params = data["params"]
    except (KeyError, TypeError) as exc:
        raise GapError(f"malformed instance payload: {exc}") from exc
    try:
        if family == "knapsack":
            return build_knapsack(int(params["n"]), rat(params["P"]))
        if family == "mkp":
            return build_mkp(
                int(params["blocks"]),
                int(params["items_per_block"]),
                rat(params["eps"]),
                int(params["T"]),
            )
        if family == "schedule":
            return build_schedule(
                int(params["n"]), rat(params["k"]), rat(params["P"])
            )
    except (KeyError, TypeError) as exc:
        raise GapError(f"malformed instance payload: {exc}") from exc
    raise GapError(f"unknown instance family {family!r}")


def instance_solution(instance: Instance, t: Union[int, None] = None) -> LatticeVector:
    """The family's closed-form pseudo-probability solution."""
    if isinstance(instance, KnapsackGapInstance):
        return knapsack_solution(instance.n, instance.P)
    if isinstance(instance, MkpInstance):
        if t is None:
            raise GapError("mkp solutions need an explicit level")
        return mkp_uniform_solution(instance, t)
    if isinstance(instance, ScheduleInstance):
        return schedule_solution(instance)
    raise GapError(f"not an instance: {instance!r}")
