"""PSD certification: Gershgorin disks, pivot reduction, and the exact oracle.

The cheap sufficient test is Gershgorin's: a symmetric matrix whose every
diagonal entry is at least the sum of the absolute off-diagonal entries in
its row is PSD. The test is one-sided, so when the raw disks fail we pivot:
a rank-one term c * g g^T with g_S nonzero can be folded into the working
matrix by the congruence that clears row S against g, leaving c * g_S^2
added at (S, S) and every other term's vector updated in place. Pivoting
preserves congruence, so a disk pass after any pivot sequence certifies the
original matrix once the remaining unfolded terms are all PSD themselves.

When no pivot sequence settles the question, is_psd_exact decides it by
exact symmetric elimination over the rationals, returning a factorization
for PSD matrices and an explicit rational witness v with v^T A v < 0
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence, Union

from .adf import AlmostDiagonalForm, RankOneTerm, add_rank_one, assemble
from .lattice import LatticeError, SubsetIndex, rat_str

Matrix = list[list[Fraction]]


class CertifyError(LatticeError):
    """Invalid argument to a certification operation."""


class InvalidPivotError(CertifyError):
    """Requested pivot has a zero support entry at the pivot row."""


def _check_symmetric(rows: Sequence[Sequence[Fraction]]) -> Matrix:
    size = len(rows)
    out = [list(r) for r in rows]
    for i, row in enumerate(out):
        if len(row) != size:
            raise CertifyError("matrix is not square")
        for j in range(i):
            if row[j] != out[j][i]:
                raise CertifyError(f"matrix is not symmetric at ({i},{j})")
    return out


def quad_eval(rows: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Fraction:
    """v^T A v, used to double-check witnesses."""
    total = Fraction(0)
    for i, vi in enumerate(v):
        if vi:
            row = rows[i]
            for j, vj in enumerate(v):
                if vj:
                    total += vi * vj * row[j]
    return total


# ---------------------------------------------------------------------------
# Gershgorin disks
# ---------------------------------------------------------------------------


@dataclass
class GershgorinReport:
    """Disk centers (diagonal) and radii (row sums of absolute off-diagonals)."""

    centers: list[Fraction]
    radii: list[Fraction]

    @property
    def all_nonnegative(self) -> bool:
        return all(c >= r for c, r in zip(self.centers, self.radii))

    def margin(self) -> Fraction:
        """Smallest center minus radius; nonnegative means every disk passes."""
        if not self.centers:
            return Fraction(0)
        return min(c - r for c, r in zip(self.centers, self.radii))

    def rows_json(self, labels: Union[Sequence[str], None] = None) -> list[dict]:
        if labels is None:
            labels = [str(k) for k in range(len(self.centers))]
        return [
            {"row": lab, "center": rat_str(c), "radius": rat_str(r)}
            for lab, c, r in zip(labels, self.centers, self.radii)
        ]


def gershgorin(rows: Sequence[Sequence[Fraction]]) -> GershgorinReport:
    """Disk report for a symmetric matrix; symmetry is validated first."""
    mat = _check_symmetric(rows)
    centers = [mat[i][i] for i in range(len(mat))]
    radii = [
        sum((abs(v) for j, v in enumerate(row) if j != i), Fraction(0))
        for i, row in enumerate(mat)
    ]
    return GershgorinReport(centers, radii)


# ---------------------------------------------------------------------------
# pivot reduction
# ---------------------------------------------------------------------------


@dataclass
class PivotStep:
    """Record of one fold: term H eliminated by pivoting at row S."""

    term: SubsetIndex
    pivot: SubsetIndex
    multipliers: list[tuple[int, Fraction]]

    def to_json_dict(self) -> dict:
        return {"H": str(self.term), "S": str(self.pivot)}


class PivotState:
    """Working matrix plus the not-yet-folded rank-one terms.

    Mutable and single-owner: pivot_reduce edits it in place. working always
    satisfies  working + sum of remaining terms  congruent to the assembled
    input form, which is what makes a final disk pass meaningful.
    """

    __slots__ = ("n", "t", "index", "working", "terms", "trace", "snapshots")

    def __init__(self, form: AlmostDiagonalForm) -> None:
        self.n = form.n
        self.t = form.t
        self.index = list(form.index)
        size = len(self.index)
        self.working: Matrix = [[Fraction(0)] * size for _ in range(size)]
        for k, val in enumerate(form.diag):
            self.working[k][k] = val
        self.terms: list[RankOneTerm] = [
            RankOneTerm(term.J, term.coefficient, list(term.g_vec))
            for term in form.terms
        ]
        self.trace: list[PivotStep] = []
        self.snapshots: list[Matrix] = []

    def labels(self) -> list[str]:
        return [str(s) for s in self.index]

    def position(self, S: SubsetIndex) -> int:
        for k, s in enumerate(self.index):
            if s.bits == S.bits and s.n == S.n:
                return k
        raise CertifyError(f"pivot row {S} is not in the matrix index")

    def find_term(self, J: SubsetIndex) -> RankOneTerm:
        for term in self.terms:
            if term.J.bits == J.bits and term.J.n == J.n:
                return term
        raise CertifyError(f"term {J} is unknown or already reduced")

    def snapshot(self) -> None:
        self.snapshots.append([row[:] for row in self.working])

    def fold_term(self, term: RankOneTerm) -> None:
        add_rank_one(self.working, term.coefficient, term.g_vec)
        self.terms.remove(term)

    def fold_negative_terms(self) -> None:
        for term in [t for t in self.terms if t.coefficient < 0]:
            self.fold_term(term)

    def assembled(self) -> Matrix:
        """working plus all remaining terms, for oracle cross-checks."""
        out = [row[:] for row in self.working]
        for term in self.terms:
            add_rank_one(out, term.coefficient, term.g_vec)
        return out


def pivot_reduce(state: PivotState, H: SubsetIndex, S: SubsetIndex) -> PivotState:
    """Fold term H into the working matrix by pivoting at row S.

    Applies the congruence T = I + sum_i m_i E_{i,S} with m_i chosen to
    clear every other support entry of H, adds coeff * g_S^2 at (S, S),
    and maps every remaining term vector g to T g. Raises InvalidPivotError
    when H has no support at S, CertifyError when H was already reduced.
    """
    term = state.find_term(H)
    s = state.position(S)
    gs = term.g_vec[s]
    if gs == 0:
        raise InvalidPivotError(f"term {H} has zero support at pivot row {S}")
    mults = [
        (i, -v / gs) for i, v in enumerate(term.g_vec) if i != s and v
    ]
    W = state.working
    size = len(W)
    # Row operations first; row s itself is never a target, so the updates
    # may run in any order. Column operations then reuse the updated column s.
    row_s = W[s]
    for i, m in mults:
        row_i = W[i]
        for j in range(size):
            row_i[j] += m * row_s[j]
    for j, m in mults:
        for i in range(size):
            W[i][j] += m * W[i][s]
    W[s][s] += term.coefficient * gs * gs
    state.terms.remove(term)
    for other in state.terms:
        hs = other.g_vec[s]
        if hs:
            for i, m in mults:
                other.g_vec[i] += m * hs
    state.trace.append(PivotStep(H, S, mults))
    state.snapshot()
    return state


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class PsdCertificate:
    """Outcome of a certification run.

    verdict is "PSD", "NotPSD", or "Inconclusive" (the last one only from
    the disks-only mode, which cannot refute). recipe_conclusive is False
    when the pivot recipe gave up and the exact oracle decided instead.
    """

    verdict: str
    method: str
    schedule: list[PivotStep] = field(default_factory=list)
    final_disks: Union[GershgorinReport, None] = None
    witness: Union[list[Fraction], None] = None
    factor_pivots: Union[list[tuple[int, Fraction]], None] = None
    recipe_conclusive: bool = True
    row_labels: Union[list[str], None] = None
    trace_matrices: list[Matrix] = field(default_factory=list)

    def to_json_dict(self, include_trace: bool = False) -> dict:
        disks = []
        if self.final_disks is not None:
            disks = self.final_disks.rows_json(self.row_labels)
        out = {
            "verdict": self.verdict,
            "method": self.method,
            "schedule": [step.to_json_dict() for step in self.schedule],
            "final_disks": disks,
        }
        if self.witness is not None:
            out["witness"] = [rat_str(v) for v in self.witness]
        if include_trace:
            out["trace"] = [
                [[rat_str(v) for v in row] for row in mat]
                for mat in self.trace_matrices
            ]
        return out


def is_psd_exact(rows: Sequence[Sequence[Fraction]]) -> PsdCertificate:
    """Exact PSD decision by symmetric elimination over the rationals.

    Pivots on the largest positive diagonal entry; a negative diagonal at
    any point yields an immediate witness, and an all-zero diagonal with a
    nonzero off-diagonal entry yields the two-coordinate witness e_i -+ e_j
    whose sign is chosen against the offending entry. Witness vectors are
    carried back to the original coordinates through the accumulated row
    operations.
    """
    W = _check_symmetric(rows)
    size = len(W)
    basis = [
        [Fraction(1) if i == j else Fraction(0) for j in range(size)]
        for i in range(size)
    ]
    active = list(range(size))
    factor: list[tuple[int, Fraction]] = []
    while active:
        neg = next((i for i in active if W[i][i] < 0), None)
        if neg is not None:
            return PsdCertificate(
                verdict="NotPSD",
                method="exact-factorization",
                witness=basis[neg],
                factor_pivots=factor,
            )
        piv = max(active, key=lambda i: W[i][i])
        if W[piv][piv] == 0:
            # Every remaining diagonal is zero; PSD forces the block to vanish.
            for i in active:
                for j in active:
                    if i != j and W[i][j] != 0:
                        sign = 1 if W[i][j] > 0 else -1
                        witness = [
                            a - sign * b for a, b in zip(basis[i], basis[j])
                        ]
                        return PsdCertificate(
                            verdict="NotPSD",
                            method="exact-factorization",
                            witness=witness,
                            factor_pivots=factor,
                        )
            break
        d = W[piv][piv]
        factor.append((piv, d))
        active.remove(piv)
        col = [(i, W[i][piv]) for i in active if W[i][piv]]
        for i, ci in col:
            m = -ci / d
            brow = basis[piv]
            bi = basis[i]
            for k in range(size):
                bi[k] += m * brow[k]
        for i, ci in col:
            fi = ci / d
            Wi = W[i]
            Wp = W[piv]
            for j in active:
                Wi[j] -= fi * Wp[j]
    return PsdCertificate(
        verdict="PSD",
        method="exact-factorization",
        factor_pivots=factor,
    )


def principal_minors_psd(rows: Sequence[Sequence[Fraction]]) -> bool:
    """PSD by the textbook criterion: every principal minor is nonnegative.

    Exponential in the dimension, so capped at 12; meant as an independent
    cross-check of is_psd_exact on small matrices, not for production.
    """
    mat = _check_symmetric(rows)
    size = len(mat)
    if size > 12:
        raise CertifyError("principal minor check is limited to dimension 12")
    for picks in range(1, 1 << size):
        sel = [i for i in range(size) if picks >> i & 1]
        sub = [[mat[i][j] for j in sel] for i in sel]
        if _det(sub) < 0:
            return False
    return True


def _det(mat: Matrix) -> Fraction:
    m = [row[:] for row in mat]
    size = len(m)
    det = Fraction(1)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if m[r][col]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            det = -det
        d = m[col][col]
        det *= d
        for r in range(col + 1, size):
            f = m[r][col] / d
            if f:
                for c in range(col, size):
                    m[r][c] -= f * m[col][c]
    return det


# ---------------------------------------------------------------------------
# the recipe
# ---------------------------------------------------------------------------


def _disks_conclusion(state: PivotState, report: GershgorinReport) -> bool:
    """Whether the disk report of state.working proves the assembled form PSD."""
    return report.all_nonnegative and all(t.coefficient > 0 for t in state.terms)


def certify_recipe(
    form: AlmostDiagonalForm,
    schedule: Union[Sequence[tuple[SubsetIndex, SubsetIndex]], None] = None,
) -> PsdCertificate:
    """Certify the assembled form PSD through pivoting plus Gershgorin.

    With an explicit schedule: replay the pivots in order, fold the
    negative terms afterwards, and read the disks. Without one: fold the
    negative terms up front, then greedily pivot the worst row against the
    largest-coefficient positive term available, stopping when the disks
    pass or two consecutive pivots fail to improve the worst margin.

    Either way a failed recipe falls back to the exact oracle on the
    assembled matrix, with recipe_conclusive set to False. The disks are
    read once per state of the working matrix, and both certificates
    carry the last reading.
    """
    state = PivotState(form)
    for H, S in schedule or ():
        pivot_reduce(state, H, S)
    state.fold_negative_terms()
    state.snapshot()
    disks = gershgorin(state.working)
    if schedule is None:
        best = disks.margin()
        stalled = 0
        while not _disks_conclusion(state, disks) and state.terms and stalled < 2:
            margins = sorted(
                range(len(state.index)),
                key=lambda i: (
                    disks.centers[i] - disks.radii[i],
                    state.index[i].sort_key(),
                ),
            )
            chosen = None
            for i in margins:
                candidates = [t for t in state.terms if t.g_vec[i] != 0]
                if candidates:
                    candidates.sort(
                        key=lambda t: (-t.coefficient, t.J.sort_key())
                    )
                    chosen = (candidates[0].J, state.index[i])
                    break
            if chosen is None:
                break
            pivot_reduce(state, *chosen)
            disks = gershgorin(state.working)
            margin = disks.margin()
            if margin > best:
                best = margin
                stalled = 0
            else:
                stalled += 1
    if _disks_conclusion(state, disks):
        return PsdCertificate(
            verdict="PSD",
            method="gershgorin-recipe",
            schedule=state.trace,
            final_disks=disks,
            row_labels=state.labels(),
            trace_matrices=state.snapshots,
        )
    return replace(
        is_psd_exact(assemble(form)),
        schedule=state.trace,
        final_disks=disks,
        recipe_conclusive=False,
        row_labels=state.labels(),
        trace_matrices=state.snapshots,
    )


def certify_matrix(rows: Sequence[Sequence[Fraction]]) -> PsdCertificate:
    """Certify a raw symmetric matrix: the disks first, then the exact oracle.

    There are no rank-one terms to pivot, so a failed disk pass goes
    straight to is_psd_exact, with recipe_conclusive set to False.
    """
    disks = gershgorin(rows)
    if disks.all_nonnegative:
        return PsdCertificate(
            verdict="PSD", method="gershgorin-recipe", final_disks=disks
        )
    return replace(is_psd_exact(rows), final_disks=disks, recipe_conclusive=False)
