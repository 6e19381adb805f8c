"""The exact oracle as symmetric elimination in plain Fractions, kept beside the tests as a reference.

The library decides PSD in certify.is_psd_exact on integer rows, one
denominator per row. The tests check it against this elimination, which
makes the same decisions in the same order on one triangle of Fractions,
so a change to the integer kernel is compared with an independent
implementation: same verdict, same method, the same witness entry by entry.
"""

from fractions import Fraction
from typing import Sequence

from momentcert.certify import PsdCertificate


def is_psd_exact(rows: Sequence[Sequence[Fraction]]) -> PsdCertificate:
    """Exact PSD decision by symmetric elimination over the rationals.

    Pivots on the largest positive diagonal entry and updates one triangle
    (W[i][j] with i <= j) over the nonzero entries of the pivot row only. A
    negative diagonal at any point yields the witness e_r, and an all-zero
    diagonal with a nonzero off-diagonal entry yields e_i -+ e_j with the
    sign chosen against the offending entry. Each step records its row
    multipliers, and only a NotPSD verdict rebuilds the witness from them,
    in the original coordinates.
    """
    W = [list(row) for row in rows]
    active = list(range(len(W)))
    steps: list[tuple[int, list[tuple[int, Fraction]]]] = []
    while active:
        neg = next((i for i in active if W[i][i] < 0), None)
        if neg is not None:
            return _not_psd(steps, len(W), {neg: 1})
        piv = max(active, key=lambda i: W[i][i])
        d = W[piv][piv]
        if d == 0:
            # Every remaining diagonal is zero; PSD forces the block to vanish.
            for k, i in enumerate(active):
                j = next((j for j in active[k + 1:] if W[i][j]), None)
                if j is not None:
                    return _not_psd(steps, len(W), {i: 1, j: -1 if W[i][j] > 0 else 1})
            break
        active.remove(piv)
        col = [(i, W[i][piv] if i < piv else W[piv][i]) for i in active]
        col = [(i, c) for i, c in col if c]
        mults = [(i, -c / d) for i, c in col]
        for k, (i, m) in enumerate(mults):
            Wi = W[i]
            for j, c in col[k:]:
                Wi[j] += m * c
        steps.append((piv, mults))
    return PsdCertificate(verdict="PSD", method="exact-factorization")


def _not_psd(
    steps: list[tuple[int, list[tuple[int, Fraction]]]], size: int, reduced: dict[int, int]
) -> PsdCertificate:
    """NotPSD with the witness u^T E_k...E_1, where u (e_r or e_i -+ e_j) is given by reduced.

    Step s is E_s = I + sum_i m_i e_i e_piv^T (row i += m_i row piv), so
    multiplying u^T on the right by the steps last-first adds sum_i m_i u_i
    to u_piv; the result is the same combination of the rows of E, and
    u^T (E A E^T) u < 0 is the value the reduced matrix showed.
    """
    u = [Fraction(reduced.get(i, 0)) for i in range(size)]
    for piv, mults in reversed(steps):
        u[piv] += sum(m * u[i] for i, m in mults if u[i])
    return PsdCertificate(verdict="NotPSD", method="exact-factorization", witness=u)
