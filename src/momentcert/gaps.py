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
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Callable, Iterator, Union

from .adf import AlmostDiagonalForm, decompose, from_pseudo
from .certify import PsdCertificate, certify_recipe, decide_form
from .lattice import (
    PSEUDO_PROBABILITIES,
    LatticeError,
    LatticeVector,
    LinearConstraint,
    RationalLike,
    SubsetIndex,
    check_subset_count,
    enumerate_subsets,
    from_pseudo_probabilities,
    json_int,
    max_ground_size,
    rat,
    rat_str,
)
from .moments import constraint_diagonal


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


# ---------------------------------------------------------------------------
# knapsack family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KnapsackGapInstance:
    """n items, one covering constraint sum x_i >= 1/P with P > 1."""

    n: int
    P: Fraction

    family = "knapsack"

    def solution(self, t: int) -> LatticeVector:
        """The closed-form solution; it is the same at every level t.

        It has 2^n entries and is certified at level n, so P_n's size is
        refused before it is built, for gap knapsack and decompose alike.
        """
        check_subset_count(self.n, self.n)
        return knapsack_solution(self.n, self.P)


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


def knapsack_constraint(n: int, P: RationalLike) -> LinearConstraint:
    """The covering constraint sum_i x_i - 1/P over n items."""
    Pq = build_knapsack(n, P).P
    weights = {i: 1 for i in range(1, n + 1)}
    return LinearConstraint(n, weights, constant=-1 / Pq)


def knapsack_solution(n: int, P: RationalLike) -> LatticeVector:
    """Closed-form pseudo-probabilities 2^n / (P|I| - 1) on nonempty I.

    The value depends on |I| only, so it is computed once per size s and
    the nonempty mass summed as sum_s C(n, s) 2^n / (Ps - 1).
    The empty set receives whatever is left of total mass one; when that
    leftover is negative the parameters cannot carry the solution and
    InfeasibleParametersError is raised. P >= 2^(2n+1) always suffices.
    """
    Pq = build_knapsack(n, P).P
    scale = Fraction(1 << n)
    by_size = [Fraction(0)] + [scale / (Pq * s - 1) for s in range(1, n + 1)]
    total = sum((comb(n, s) * val for s, val in enumerate(by_size)), Fraction(0))
    rest = 1 - total
    if rest < 0:
        raise InfeasibleParametersError(
            f"nonempty subsets already carry mass {rat_str(total)} > 1 "
            f"at n={n}, P={rat_str(Pq)}"
        )
    entries = {mask: by_size[mask.bit_count()] for mask in range(1, 1 << n)}
    entries[0] = rest
    return LatticeVector(n, PSEUDO_PROBABILITIES, entries)


def relaxation_objective(p: LatticeVector) -> Fraction:
    """Sum of the singleton moments, computed as sum_I |I| * p_I.

    The terms are added as integer numerators over the common denominator
    L of the entries, and the sum is read back as one rational.
    """
    if p.kind != PSEUDO_PROBABILITIES:
        raise GapError("objective expects a pseudo-probability vector")
    entries = p.to_dict()
    L = lcm(*(q.denominator for q in entries.values()))
    total = sum(
        mask.bit_count() * q.numerator * (L // q.denominator)
        for mask, q in entries.items()
    )
    return Fraction(total, L)


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

    def cardinality_constraint(self) -> LinearConstraint:
        weights = {i: -1 for i in range(1, self.n_items + 1)}
        return LinearConstraint(self.n_items, weights, constant=self.T)

    def demand_constraint(self, block: int) -> LinearConstraint:
        weights = {i: 1 for i in self.block_members(block)}
        return LinearConstraint(self.n_items, weights, constant=-self.eps)


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

    def group_members(self, group: int) -> tuple[int, ...]:
        if not 1 <= group <= self.n:
            raise GapError(f"group {group} out of range")
        start = (group - 1) * self.n + 1
        return tuple(range(start, start + self.n))

    def cardinality_constraint(self) -> LinearConstraint:
        weights = {v: -1 for v in range(1, self.jobs + 1)}
        return LinearConstraint(self.jobs, weights, constant=self.level_cap)

    def covering_constraint(self, level: int) -> LinearConstraint:
        """Prefix covering constraint, scaled down by P^level.

        The raw constraint weighs group i by P^i against demand D_level;
        the P^(-level) scaling keeps every weight at most one, which is
        what the certification matrices are built from. Scaling by a
        positive constant does not move the PSD verdict.
        """
        if not 1 <= level <= self.n:
            raise GapError(f"covering level {level} out of range")
        weights = {
            v: self.P ** (i - level)
            for i in range(1, level + 1)
            for v in self.group_members(i)
        }
        constant = -self.demands[level - 1] * self.P ** (-level)
        return LinearConstraint(self.jobs, weights, constant)


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


def _schedule_report(
    instance: ScheduleInstance, coverings: list[PsdCertificate]
) -> GapReport:
    """The report of one scheduling instance, given its covering certificates.

    The moment matrix at the cap level decomposes to a plain nonnegative
    diagonal (no rank-one terms survive, since no pseudo-probability
    lives above the cap), and the cardinality matrix is a nonnegative
    diagonal for every P; both are certified here. Feasibility is the
    conjunction; the gap is the integral cost n over the cap n/k, which
    is k.
    """
    p = schedule_solution(instance)
    cap = instance.level_cap
    moment_cert = certify_recipe(decompose(from_pseudo_probabilities(p), cap))
    cardinality_form = from_pseudo(
        constraint_diagonal(instance.cardinality_constraint(), p), cap - 1
    )
    certificates = [
        ("moment-matrix", moment_cert),
        ("cardinality", certify_recipe(cardinality_form)),
    ]
    certificates += [
        (f"covering-{level}", cert) for level, cert in enumerate(coverings, start=1)
    ]
    objective = relaxation_objective(p)
    return GapReport(
        instance=instance,
        level=cap - 1,
        gap=Fraction(instance.n) / Fraction(instance.level_cap),
        objective=objective,
        certificates=certificates,
    )


def verify_schedule(instance: ScheduleInstance) -> GapReport:
    """Certify the uniform solution for one scheduling instance.

    Each prefix covering matrix is decided by its orbit blocks; the
    moment and cardinality matrices are certified by _schedule_report.
    """
    return _schedule_report(instance, list(_covering_certificates(instance)))


def find_min_feasible_P(n: int, k: RationalLike) -> GapReport:
    """The report at the smallest integer weight base P >= 2 with all coverings PSD.

    Doubles from 2 until a feasible base appears, then bisects; the
    moment and cardinality matrices never depend on P, so only the
    covering matrices are consulted. The covering certificates of the
    feasible base found last are kept, so the report decides no covering
    twice; the base is the report's instance.P. The search is guarded
    against running away when no feasible base exists below 2^40.
    """
    feasible: dict[int, list[PsdCertificate]] = {}

    def coverings_psd(P: int) -> bool:
        certs = []
        for cert in _covering_certificates(build_schedule(n, k, P)):
            if cert.verdict != "PSD":
                return False
            certs.append(cert)
        feasible[P] = certs
        return True

    hi = 2
    while not coverings_psd(hi):
        hi *= 2
        if hi > 1 << 40:
            raise GapError("no feasible integer base below 2^40")
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if coverings_psd(mid):
            hi = mid
        else:
            lo = mid
    return _schedule_report(build_schedule(n, k, hi), feasible[hi])


# ---------------------------------------------------------------------------
# instance plumbing
# ---------------------------------------------------------------------------

# Quoted, so that typing's cache of this Union holds names, not classes.
# Holding the classes, it kept each earlier import of this module, and the
# modules it imports, alive after a fresh import of the package
# (perfbench/run.py imports it afresh for each set-up).
Instance = Union["KnapsackGapInstance", "MkpInstance", "ScheduleInstance"]


_FAMILIES = {
    cls.family: (cls, build)
    for cls, build in [
        (KnapsackGapInstance, build_knapsack),
        (MkpInstance, build_mkp),
        (ScheduleInstance, build_schedule),
    ]
}


def instance_to_json(instance: Instance) -> dict:
    """The family and the dataclass fields: an int as itself, a Fraction as rat_str."""
    params = {}
    for f in fields(instance):
        value = getattr(instance, f.name)
        params[f.name] = value if f.type == "int" else rat_str(value)
    return {"family": instance.family, "params": params}


def instance_from_json(data: dict) -> Instance:
    """The instance the family's build_* makes from the fields instance_to_json writes.

    An int field is read by json_int and a Fraction field by rat, so a
    malformed field raises GapError, as does an unknown family; the
    checks of build_* raise as they are.
    """
    try:
        family = data["family"]
        params = data["params"]
    except (KeyError, TypeError) as exc:
        raise GapError(f"malformed instance payload: {exc}") from exc
    if not isinstance(family, str) or family not in _FAMILIES:
        raise GapError(f"unknown instance family {family!r}")
    cls, build = _FAMILIES[family]
    try:
        args = [(json_int if f.type == "int" else rat)(params[f.name]) for f in fields(cls)]
    except (KeyError, TypeError, ValueError) as exc:
        raise GapError(f"malformed instance payload: {exc}") from exc
    return build(*args)
