"""PSD certification: Gershgorin disks, pivot reduction, and the exact oracle.

The cheap sufficient test is Gershgorin's: a symmetric matrix whose every
diagonal entry is at least the sum of the absolute off-diagonal entries in
its row is PSD. The test is one-sided, so when the raw disks fail we pivot:
a rank-one term c * g g^T with g_S nonzero is cleared by the congruence
that maps g to g_S e_S, leaving c * g_S^2 at (S, S) and every other term
replaced by one over its mapped vector. Pivoting preserves congruence, so
a disk pass after any pivot sequence certifies the original matrix once
the remaining unfolded terms are all PSD themselves.

The pivot state stays an almost diagonal form throughout. With
T = I + sum_i m_i E_{i,s} and D the diagonal,

    T D T^T = D - D_ss e_s e_s^T + D_ss (e_s + m)(e_s + m)^T,

and a rank-one term c u u^T maps to c (T u)(T u)^T, so a pivot resets one
diagonal entry, maps the term vectors and appends at most one new term.
Term vectors are integer vectors over one denominator, and the pivot maps
them fraction-free; the diagonal stays Fractions, and no float enters.
gershgorin reads the disks of a form, and of a pivot state's stage (the
diagonal plus the folded terms) through the same reader: in closed form
while no row is touched by two terms, and otherwise from the integer
triangle that assemble also starts from (adf.rank_one_triangle). The
report holds every center and radius as an integer numerator over one
denominator, so margins, the worst-row order and the disk text are read
from integers, and no Fraction is built per row.

When no pivot sequence settles the question, is_psd_exact decides it by
exact symmetric elimination on integer rows, each over its own
denominator and divided by its content after every pivot that touches
it: a bare PSD verdict when every pivot stays nonnegative, and otherwise
an explicit rational witness v with v^T A v < 0, rebuilt from the
recorded multipliers.
is_psd_exact is the decider for raw matrices. Forms go through
decide_form, which, when every coefficient is positive and the
nonpositive diagonal rows plus the terms are fewer than the rows, first
takes the Schur complement onto those rows (Haynsworth inertia additivity
with the positive-definite rest eliminated by Woodbury). That complement
is again a diagonal plus rank-one terms, so the same assemble and the
same elimination decide it, and a NotPSD witness is lifted back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

from .adf import AlmostDiagonalForm, RankOneTerm, assemble, rank_one_triangle
from .lattice import LatticeError, SubsetIndex, rat_str, subset_label

Matrix = list[list[Fraction]]

# Most cells the trace stages of one artifact may hold. Each cell is
# written as a rational string: gap knapsack --trace at n = 8 has about
# 196k cells and writes 15 MB, and at n = 9 about 784k cells and 73 MB,
# growing 4x per n. The limit admits n = 8.
MAX_TRACE_CELLS = 1 << 18


class CertifyError(LatticeError):
    """Invalid argument to a certification operation."""


class InvalidPivotError(CertifyError):
    """Requested pivot has a zero support entry at the pivot row."""


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], list[int]]:
    """Row i of a raw matrix as integers B_i over a positive denominator q_i.

    q_i is the lcm of the row's denominators; entries are read through
    as_integer_ratio, so ints are taken as they are, and a float, which
    has one too, is refused. The matrix is checked square first, and
    symmetric on the integer rows as they are built (B_ij q_j == B_ji q_i).
    """
    if any(len(row) != len(rows) for row in rows):
        raise CertifyError("matrix is not square")
    B: list[list[int]] = []
    q: list[int] = []
    for i, row in enumerate(rows):
        if any(type(v) is float for v in row):
            raise CertifyError(f"matrix row {i} has a float entry")
        ratios = [v.as_integer_ratio() for v in row]
        den = math.lcm(*(e for _, e in ratios))
        B.append([a * (den // e) for a, e in ratios])
        q.append(den)
        for j in range(i):
            if B[i][j] * q[j] != B[j][i] * den:
                raise CertifyError(f"matrix is not symmetric at ({i},{j})")
    return B, q


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
    """Disks as integer numerators over one positive denominator.

    Row i's center (its diagonal entry) is cnum[i] / den and its radius
    (the sum of its absolute off-diagonal entries) rnum[i] / den. Margins
    and their order are read on the integers; centers and radii are
    Fraction views built on each read.
    """

    cnum: list[int]
    rnum: list[int]
    den: int

    @property
    def centers(self) -> list[Fraction]:
        return [Fraction(c, self.den) for c in self.cnum]

    @property
    def radii(self) -> list[Fraction]:
        return [Fraction(r, self.den) for r in self.rnum]

    @cached_property
    def margins(self) -> list[int]:
        """Each row's center minus radius, as a numerator over den."""
        return [c - r for c, r in zip(self.cnum, self.rnum)]

    @property
    def all_nonnegative(self) -> bool:
        return min(self.margins, default=0) >= 0

    def margin(self) -> Fraction:
        """Smallest center minus radius; nonnegative means every disk passes."""
        return Fraction(min(self.margins, default=0), self.den)

    def rows_json(self, labels: Union[Sequence[str], None] = None) -> list[dict]:
        """One entry per row, each value the rat_str text of its numerator over den."""
        if labels is None:
            labels = [str(k) for k in range(len(self.cnum))]
        den = self.den

        def text(x: int) -> str:
            g = math.gcd(x, den)
            return str(x // g) if g == den else f"{x // g}/{den // g}"

        return [
            {"row": lab, "center": text(c), "radius": text(r)}
            for lab, c, r in zip(labels, self.cnum, self.rnum)
        ]


def gershgorin(
    source: Union[Sequence[Sequence[Fraction]], AlmostDiagonalForm, PivotState],
) -> GershgorinReport:
    """Disk report for a symmetric matrix, a form, or a pivot state.

    Raw rows are validated symmetric first. A PivotState is symmetric by
    construction, and its disks are those of its stage, the diagonal plus
    the folded terms (the unfolded terms are left out), read as a form.
    """
    if isinstance(source, PivotState):
        source = source.stage()
    if isinstance(source, AlmostDiagonalForm):
        return _form_disks(source)
    return _row_disks(*_integer_rows(source))


def _over(values: Sequence[Fraction], den: int) -> list[int]:
    """The numerators of values over den, a multiple of each denominator."""
    return [v.numerator * (den // v.denominator) for v in values]


def _form_disks(form: AlmostDiagonalForm) -> GershgorinReport:
    """Disks of a form, none of its cells built.

    While no row is touched by two terms they are read in closed form
    from each term's num over den: a row that the term (c, u) touches has
    center D_i + c u_i^2 and radius |c u_i| (|u|_1 - |u_i|), and an
    untouched row has center D_i and radius 0; the report's denominator
    is the lcm of the diagonal's and of every c.denominator * den^2.
    Otherwise they are read from the integer triangle U over L of the
    terms (rank_one_triangle) over the lcm of L and the diagonal's
    denominators: row i's center is D_i + U_ii / L and its radius the sum
    of |U_ij| over row and column i of U, over L.
    """
    nonzeros: list[list[tuple[int, int]]] = []
    touched: set[int] = set()
    for term in form.terms:
        nz = [(k, v) for k, v in enumerate(term.num) if v]
        if not touched.isdisjoint(k for k, _ in nz):
            break
        touched.update(k for k, _ in nz)
        nonzeros.append(nz)
    else:  # no row is touched by two terms
        scaled = [(t.coefficient.numerator, t.coefficient.denominator * t.den ** 2, nz)
                  for t, nz in zip(form.terms, nonzeros)]
        den = math.lcm(*(d.denominator for d in form.diag), *(q for _, q, _ in scaled))
        cnum = _over(form.diag, den)
        rnum = [0] * len(cnum)
        for a, q, nz in scaled:
            m = a * (den // q)
            l1 = sum(abs(v) for _, v in nz)
            for k, v in nz:
                cnum[k] += m * v * v
                rnum[k] = abs(m * v) * (l1 - abs(v))
        return GershgorinReport(cnum, rnum, den)
    L, upper = rank_one_triangle(form)
    den = math.lcm(L, *(d.denominator for d in form.diag))
    m = den // L
    return GershgorinReport(
        [c + m * row[i] for i, (c, row) in enumerate(zip(_over(form.diag, den), upper))],
        [m * (sum(map(abs, row)) + sum(map(abs, col)) - 2 * abs(row[i]))
         for i, (row, col) in enumerate(zip(upper, zip(*upper)))],
        den,
    )


def _row_disks(B: list[list[int]], q: list[int]) -> GershgorinReport:
    """Disks of the integer rows B_i over q_i, put over the lcm of the q_i."""
    den = math.lcm(*q)
    scale = [den // qi for qi in q]
    return GershgorinReport(
        [m * row[i] for i, (m, row) in enumerate(zip(scale, B))],
        [m * (sum(map(abs, row)) - abs(row[i])) for i, (m, row) in enumerate(zip(scale, B))],
        den,
    )


# ---------------------------------------------------------------------------
# pivot reduction
# ---------------------------------------------------------------------------


@dataclass
class PivotStep:
    """Record of one fold: term H eliminated by pivoting at row S."""

    term: SubsetIndex
    pivot: SubsetIndex

    def to_json_dict(self) -> dict:
        return {"H": str(self.term), "S": str(self.pivot)}


class PivotState:
    """A pivoted form: diagonal, the folded rank-one terms, and the unfolded terms.

    Single-owner: pivot_reduce and fold_term change its diagonal and its
    term lists, but never edit a term, which is an immutable value.
    It starts from the input form's own term objects, so a form's G(J)
    vectors are built only if a pivot or a disk reading needs them.
    folded holds the terms sigma (e_s + m)(e_s + m)^T that pivots create
    and the terms fold_term moves out of terms, so that

        Diag(diag) + sum of folded + sum of remaining terms

    is always congruent to the assembled input form, which is what makes a
    final disk pass (gershgorin(state)) meaningful. The stage is the
    diagonal plus the folded terms; a snapshot is the stage as a form,
    with its own diagonal and term list over the shared terms, and
    PsdCertificate.trace_matrices assembles each one.
    """

    __slots__ = ("n", "t", "index", "diag", "folded", "terms", "trace", "snapshots")

    def __init__(self, form: AlmostDiagonalForm) -> None:
        self.n, self.t = form.n, form.t
        self.index = list(form.index)
        self.diag = list(form.diag)
        self.folded: list[RankOneTerm] = []
        self.terms: list[RankOneTerm] = list(form.terms)
        self.trace: list[PivotStep] = []
        self.snapshots: list[AlmostDiagonalForm] = []

    def labels(self) -> list[str]:
        return [subset_label(s.bits) for s in self.index]

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

    def stage(self) -> AlmostDiagonalForm:
        """The diagonal plus the folded terms, as a form sharing the term objects."""
        return AlmostDiagonalForm(self.n, self.t, self.index, self.diag, self.folded)

    def snapshot(self) -> None:
        self.snapshots.append(self.stage())

    def fold_term(self, term: RankOneTerm) -> None:
        self.terms = [t for t in self.terms if t is not term]
        self.folded.append(term)

    def fold_negative_terms(self) -> None:
        for term in [t for t in self.terms if t.coefficient < 0]:
            self.fold_term(term)


def pivot_reduce(state: PivotState, H: SubsetIndex, S: SubsetIndex) -> PivotState:
    """Fold term H by pivoting at row S, keeping the state an almost diagonal form.

    The congruence T = I + sum_i m_i E_{i,S} has m_i chosen to clear every
    other support entry of H, so T maps H's vector g to g_S e_S. With
    sigma = D_ss,

        T D T^T = D - sigma e_s e_s^T + sigma (e_s + m)(e_s + m)^T:

    every folded and remaining term with v_s nonzero is replaced by a new
    term over T v = v + v_s m (terms are immutable, so the input form and
    earlier snapshots keep theirs), D_ss becomes coeff * g_S^2, and a
    nonzero sigma (e_s + m)(e_s + m)^T is appended to folded. H is removed
    by identity. With H's vector g / d and a term's h / e in integers,
    m_i = -g_i / g_s, so g_s T v is g_s h - h_s g off row s and g_s h_s at
    s, over e g_s, and e_s + m is (g_s e_s - g off row s) / g_s; both are
    built fraction-free and brought to lowest terms, and D_ss is
    coeff * g_s^2 / d^2. The cost is O(size) integer work per replaced term.
    Raises InvalidPivotError when H has no support at S, CertifyError when
    H was already reduced.
    """
    term = state.find_term(H)
    s = state.position(S)
    gs = term.num[s]
    if gs == 0:
        raise InvalidPivotError(f"term {H} has zero support at pivot row {S}")
    nz = [(i, v) for i, v in enumerate(term.num) if i != s and v]
    state.terms = [other for other in state.terms if other is not term]
    for terms in (state.folded, state.terms):
        for k, other in enumerate(terms):
            hs = other.num[s]
            if hs:
                vec = [gs * x for x in other.num]
                for i, v in nz:
                    vec[i] -= hs * v
                terms[k] = RankOneTerm.scaled(other.J, other.coefficient, vec, other.den * gs)
    sigma = state.diag[s]
    state.diag[s] = term.coefficient * Fraction(gs * gs, term.den ** 2)
    if sigma:
        u = [0] * len(state.diag)
        u[s] = gs
        for i, v in nz:
            u[i] = -v
        state.folded.append(RankOneTerm.scaled(S, sigma, u, gs))
    state.trace.append(PivotStep(H, S))
    state.snapshot()
    return state


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class PsdCertificate:
    """Outcome of a certification run.

    verdict is "PSD", "NotPSD", or "Inconclusive" (the last one only from
    the disks-only mode, which cannot refute). method names the layer that
    decided: "gershgorin-recipe" for the disks, "exact-factorization" for
    the oracle.
    """

    verdict: str
    method: str
    schedule: list[PivotStep] = field(default_factory=list)
    final_disks: Union[GershgorinReport, None] = None
    witness: Union[list[Fraction], None] = None
    row_labels: Union[list[str], None] = None
    snapshots: list[AlmostDiagonalForm] = field(default_factory=list)

    @property
    def trace_matrices(self) -> list[Matrix]:
        """Each snapshot, the diagonal plus the folded terms, as one dense matrix."""
        return [assemble(form) for form in self.snapshots]

    @property
    def recipe_conclusive(self) -> bool:
        """Whether the disks proved PSD, so the oracle was never needed."""
        return self.verdict == "PSD" and self.method == "gershgorin-recipe"

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
            check_trace_cells([self])
            out["trace"] = [
                [[rat_str(v) for v in row] for row in mat]
                for mat in self.trace_matrices
            ]
        return out


def check_trace_cells(certificates: Iterable[PsdCertificate]) -> None:
    """Refuse, before any stage is assembled, traces above MAX_TRACE_CELLS cells in all."""
    cells = sum(form.size() ** 2 for cert in certificates for form in cert.snapshots)
    if cells > MAX_TRACE_CELLS:
        raise CertifyError(
            f"the trace has {cells} stage cells, above the limit of {MAX_TRACE_CELLS}"
        )


def is_psd_exact(rows: Sequence[Sequence[Fraction]]) -> PsdCertificate:
    """Exact PSD decision by symmetric elimination on integer rows.

    Row i of the Schur complement is kept as integers B_i over a positive
    denominator q_i, S_ij = B_ij / q_i, starting from the rows that
    _integer_rows reads and checks square and symmetric. A
    negative diagonal at any point yields the witness e_r. Otherwise the
    pivot p is the first largest S_ii, compared by cross-multiplying, and
    with d = B_pp each row i with S_pi nonzero becomes d B_i - B_ip B_p
    over q_i d, divided by the gcd of that denominator and the row; the
    pivot column of every remaining row is then zero, and rows off the
    pivot's support are never read. An all-zero diagonal with a nonzero
    off-diagonal entry yields e_i -+ e_j with the sign chosen against the
    offending entry. Each step records its row multipliers
    -S_ip / S_pp = -B_pi / d as integers, and only a NotPSD verdict
    rebuilds the witness from them, in the original coordinates.

    Entries may be Fractions or ints, so integer rows (the orbit
    blocks') are taken as they are.
    """
    B, q = _integer_rows(rows)
    active = list(range(len(B)))
    steps: list[tuple[int, int, list[tuple[int, int]]]] = []
    while active:
        piv = active[0]
        for i in active:
            b = B[i][i]
            if b < 0:
                return _not_psd(steps, len(B), {i: 1})
            if b * q[piv] > B[piv][piv] * q[i]:
                piv = i
        Bp = B[piv]
        d = Bp[piv]
        if d == 0:
            # Every remaining diagonal is zero; PSD forces the block to vanish.
            for k, i in enumerate(active):
                j = next((j for j in active[k + 1:] if B[i][j]), None)
                if j is not None:
                    return _not_psd(steps, len(B), {i: 1, j: -1 if B[i][j] > 0 else 1})
            break
        active.remove(piv)
        col = [(i, Bp[i]) for i in active if Bp[i]]
        for i, _ in col:
            b = B[i][piv]
            Bi = [d * x - b * y for x, y in zip(B[i], Bp)]
            g = math.gcd(q[i] * d, *Bi)
            B[i] = [x // g for x in Bi]
            q[i] = q[i] * d // g
        steps.append((piv, d, col))
    return PsdCertificate(verdict="PSD", method="exact-factorization")


def _not_psd(
    steps: list[tuple[int, int, list[tuple[int, int]]]], size: int, reduced: dict[int, int]
) -> PsdCertificate:
    """NotPSD with the witness u^T E_k...E_1, where u (e_r or e_i -+ e_j) is given by reduced.

    Step s is E_s = I + sum_i m_i e_i e_piv^T (row i += m_i row piv) with
    m_i = -c_i / d for the recorded (piv, d, [(i, c_i)]), so multiplying
    u^T on the right by the steps last-first subtracts sum_i c_i u_i / d
    from u_piv; the result is the same combination of the rows of E, and
    u^T (E A E^T) u < 0 is the value the reduced matrix showed.
    """
    u = [Fraction(reduced.get(i, 0)) for i in range(size)]
    for piv, d, col in reversed(steps):
        u[piv] -= sum((c * u[i] for i, c in col if u[i]), Fraction(0)) / d
    return PsdCertificate(verdict="NotPSD", method="exact-factorization", witness=u)


def decide_form(form: AlmostDiagonalForm) -> PsdCertificate:
    """Exact PSD decision for a form, on its Schur complement when that is smaller.

    Write the form as M = D + G C G^T over its nonzero coefficients, with R
    the rows where D <= 0 and P the rest. When every coefficient is
    positive, M_PP is positive definite, so M is PSD exactly when its Schur
    complement onto R is. By Woodbury that complement is
    S = D_R + G_R H^-1 G_R^T with H = C^-1 + G_P^T D_P^-1 G_P (k x k).
    Eliminating H = L Delta L^T without pivoting (H is positive definite,
    so every Delta_j > 0) makes S a form over R with coefficients
    1/Delta_j and vectors u_j, row j of L^-1 applied to the g's; each keeps
    its source term's J. S is decided by is_psd_exact(assemble(S)), and a
    witness v is lifted to x_R = v, x_P = -D_P^-1 sum_j s_j u_j,P with
    s_j = (u_j,R . v) / Delta_j, so that x^T M x = v^T S v < 0.

    The reduction runs when every coefficient is positive and |R| + k is
    below the size; otherwise the assembled form is decided directly.
    """
    terms = [t for t in form.terms if t.coefficient]
    D, k = form.diag, len(terms)
    R = [i for i, d in enumerate(D) if d <= 0]
    if any(t.coefficient < 0 for t in terms) or len(R) + k >= form.size():
        return is_psd_exact(assemble(form))
    P = [i for i, d in enumerate(D) if d > 0]
    vecs = [t.g_vec for t in terms]
    H = [[sum((a[i] * b[i] / D[i] for i in P if a[i] and b[i]), Fraction(0)) for b in vecs]
         for a in vecs]
    for j, term in enumerate(terms):
        H[j][j] += 1 / term.coefficient
    # Row operations only: H[j][j] is final once pivot j is reached, and
    # vecs[i] -= m * vecs[j] applies L^-1 to the g's as it goes.
    for j in range(k):
        for i in range(j + 1, k):
            m = H[i][j] / H[j][j]
            if m:
                for col in range(j + 1, k):
                    H[i][col] -= m * H[j][col]
                vecs[i] = [x - m * y for x, y in zip(vecs[i], vecs[j])]
    delta = [H[j][j] for j in range(k)]
    reduced = AlmostDiagonalForm(
        form.n, form.t, [form.index[i] for i in R], [D[i] for i in R],
        [RankOneTerm(t.J, 1 / d, [v[i] for i in R]) for t, d, v in zip(terms, delta, vecs)],
    )
    cert = is_psd_exact(assemble(reduced))
    if cert.witness is None:
        return cert
    x = [Fraction(0)] * form.size()
    for i, vi in zip(R, cert.witness):
        x[i] = vi
    for d, v in zip(delta, vecs):
        s = sum((v[i] * x[i] for i in R if v[i]), Fraction(0)) / d
        if s:
            for i in P:
                x[i] -= s * v[i] / D[i]
    return replace(cert, witness=x)


# ---------------------------------------------------------------------------
# the recipe
# ---------------------------------------------------------------------------


def _disks_conclusion(state: PivotState, report: GershgorinReport) -> bool:
    """Whether the disk report of the state proves the assembled form PSD."""
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

    Either way a failed recipe falls back to decide_form, and the
    certificate names the exact oracle as its method.
    The disks are read once per pivot state, and both certificates carry
    the last reading. They also carry the snapshots: the stage after each
    pivot and after the final fold, kept as forms and assembled only when
    trace_matrices is read.
    """
    state = PivotState(form)
    for H, S in schedule or ():
        pivot_reduce(state, H, S)
    state.fold_negative_terms()
    state.snapshot()
    disks = gershgorin(state)
    if schedule is None:
        best = disks.margin()
        stalled = 0
        while not _disks_conclusion(state, disks) and state.terms and stalled < 2:
            order = sorted(
                range(len(state.index)),
                key=lambda i: (disks.margins[i], state.index[i].sort_key()),
            )
            chosen = None
            for i in order:
                candidates = [t for t in state.terms if t.num[i]]
                if candidates:
                    candidates.sort(
                        key=lambda t: (-t.coefficient, t.J.sort_key())
                    )
                    chosen = (candidates[0].J, state.index[i])
                    break
            if chosen is None:
                break
            pivot_reduce(state, *chosen)
            disks = gershgorin(state)
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
            snapshots=state.snapshots,
        )
    return replace(
        decide_form(form),
        schedule=state.trace,
        final_disks=disks,
        row_labels=state.labels(),
        snapshots=state.snapshots,
    )


def certify_matrix(rows: Sequence[Sequence[Fraction]]) -> PsdCertificate:
    """Certify a raw symmetric matrix: the disks first, then the exact oracle.

    There are no rank-one terms to pivot, so a failed disk pass goes
    straight to is_psd_exact.
    """
    disks = gershgorin(rows)
    if disks.all_nonnegative:
        return PsdCertificate(
            verdict="PSD", method="gershgorin-recipe", final_disks=disks
        )
    return replace(is_psd_exact(rows), final_disks=disks)
