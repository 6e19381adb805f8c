"""Golden replay of the worked block-demand reduction.

The library's canonical worked example is the three-block instance with
two items per block, cap T = 2, certified at level t = 1. Block one's
demand matrix, rescaled by the uniform mass so every entry is a plain
polynomial in eps, is 7x7 over the empty set and the six singletons.
A fixed five-pivot schedule folds the heavy positive terms, the
negative terms are folded afterwards, and the Gershgorin disks of the
result are read off.

Every intermediate matrix is affine in eps, so the goldens below store
(constant, eps-coefficient) integer pairs and evaluate exactly at any
rational eps. REDUCTION_STAGES is the machine-checked truth; the
congruence invariant (each pivot stage plus the unfolded terms stays
congruent to the input) was asserted at every stage when the table was
frozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .adf import AlmostDiagonalForm, from_pseudo
from .certify import GershgorinReport, PsdCertificate, certify_recipe
from .gaps import MkpInstance, build_mkp, mkp_uniform_solution
from .lattice import (
    PSEUDO_PROBABILITIES,
    LatticeVector,
    RationalLike,
    SubsetIndex,
    rat,
    rat_str,
)
from .moments import constraint_diagonal

Matrix = list[list[Fraction]]

# The five pivots of the worked reduction: fold term H at row S.
CANONICAL_PIVOTS: tuple[tuple[str, str], ...] = (
    ("{1,2}", "{}"),
    ("{1,3}", "{3}"),
    ("{2,4}", "{4}"),
    ("{1,5}", "{5}"),
    ("{2,6}", "{6}"),
)

# Stage matrices as (constant, eps-coefficient) pairs, 7x7 each, rows and
# columns ordered {}, {1}, ..., {6}. Stages one through five follow the
# pivots above; stage six adds the folded negative terms.
_Z = (0, 0)
REDUCTION_STAGES: tuple[tuple[tuple[tuple[int, int], ...], ...], ...] = (
    (
        ((2, -2), (0, -1), (0, -1), _Z, _Z, _Z, _Z),
        ((0, -1), (1, -2), (0, -1), _Z, _Z, _Z, _Z),
        ((0, -1), (0, -1), (1, -2), _Z, _Z, _Z, _Z),
        (_Z, _Z, _Z, (0, -1), _Z, _Z, _Z),
        (_Z, _Z, _Z, _Z, (0, -1), _Z, _Z),
        (_Z, _Z, _Z, _Z, _Z, (0, -1), _Z),
        (_Z, _Z, _Z, _Z, _Z, _Z, (0, -1)),
    ),
    (
        ((2, -3), (0, -1), (0, -2), (0, -1), _Z, _Z, _Z),
        ((0, -1), (1, -2), (0, -1), _Z, _Z, _Z, _Z),
        ((0, -2), (0, -1), (1, -3), (0, -1), _Z, _Z, _Z),
        ((0, -1), _Z, (0, -1), (1, -2), _Z, _Z, _Z),
        (_Z, _Z, _Z, _Z, (0, -1), _Z, _Z),
        (_Z, _Z, _Z, _Z, _Z, (0, -1), _Z),
        (_Z, _Z, _Z, _Z, _Z, _Z, (0, -1)),
    ),
    (
        ((2, -4), (0, -2), (0, -2), (0, -1), (0, -1), _Z, _Z),
        ((0, -2), (1, -3), (0, -1), _Z, (0, -1), _Z, _Z),
        ((0, -2), (0, -1), (1, -3), (0, -1), _Z, _Z, _Z),
        ((0, -1), _Z, (0, -1), (1, -2), _Z, _Z, _Z),
        ((0, -1), (0, -1), _Z, _Z, (1, -2), _Z, _Z),
        (_Z, _Z, _Z, _Z, _Z, (0, -1), _Z),
        (_Z, _Z, _Z, _Z, _Z, _Z, (0, -1)),
    ),
    (
        ((2, -5), (0, -2), (0, -3), (0, -1), (0, -1), (0, -1), _Z),
        ((0, -2), (1, -3), (0, -1), _Z, (0, -1), _Z, _Z),
        ((0, -3), (0, -1), (1, -4), (0, -1), _Z, (0, -1), _Z),
        ((0, -1), _Z, (0, -1), (1, -2), _Z, _Z, _Z),
        ((0, -1), (0, -1), _Z, _Z, (1, -2), _Z, _Z),
        ((0, -1), _Z, (0, -1), _Z, _Z, (1, -2), _Z),
        (_Z, _Z, _Z, _Z, _Z, _Z, (0, -1)),
    ),
    (
        ((2, -6), (0, -3), (0, -3), (0, -1), (0, -1), (0, -1), (0, -1)),
        ((0, -3), (1, -4), (0, -1), _Z, (0, -1), _Z, (0, -1)),
        ((0, -3), (0, -1), (1, -4), (0, -1), _Z, (0, -1), _Z),
        ((0, -1), _Z, (0, -1), (1, -2), _Z, _Z, _Z),
        ((0, -1), (0, -1), _Z, _Z, (1, -2), _Z, _Z),
        ((0, -1), _Z, (0, -1), _Z, _Z, (1, -2), _Z),
        ((0, -1), (0, -1), _Z, _Z, _Z, _Z, (1, -2)),
    ),
    (
        ((2, -12), (0, -3), (0, -3), (0, -4), (0, -4), (0, -4), (0, -4)),
        ((0, -3), (1, -6), (0, 1), (0, 1), (0, -2), (0, 1), (0, -2)),
        ((0, -3), (0, 1), (1, -6), (0, -2), (0, 1), (0, -2), (0, 1)),
        ((0, -4), (0, 1), (0, -2), (1, -5), (0, -1), (0, -1), (0, -1)),
        ((0, -4), (0, -2), (0, 1), (0, -1), (1, -5), (0, -1), (0, -1)),
        ((0, -4), (0, 1), (0, -2), (0, -1), (0, -1), (1, -5), (0, -1)),
        ((0, -4), (0, -2), (0, 1), (0, -1), (0, -1), (0, -1), (1, -5)),
    ),
)


def canonical_instance(eps: RationalLike) -> MkpInstance:
    """Three blocks, two items each, cap two: the worked example's shape."""
    return build_mkp(3, 2, eps, 2)


def normalized_demand_form(instance: MkpInstance) -> AlmostDiagonalForm:
    """Block one's demand form at level 1, rescaled so the uniform mass drops out.

    Every pseudo-probability of the uniform solution is the same alpha,
    so dividing by it leaves the constraint evaluated at each subset.
    Rescaling by a positive constant does not move any verdict.
    """
    p = mkp_uniform_solution(instance, 1)
    count = p.nonzero_count()
    zp = constraint_diagonal(instance.demand_constraint(1), p)
    scaled = LatticeVector(
        instance.n_items,
        PSEUDO_PROBABILITIES,
        {mask: val * count for mask, val in zp.items()},
    )
    return from_pseudo(scaled, 1)


def canonical_schedule() -> list[tuple[SubsetIndex, SubsetIndex]]:
    """CANONICAL_PIVOTS over the six items of the canonical instance."""
    return [(SubsetIndex.parse(h, 6), SubsetIndex.parse(s, 6)) for h, s in CANONICAL_PIVOTS]


def stage_matrices(eps: RationalLike) -> list[Matrix]:
    """Evaluate REDUCTION_STAGES at a rational eps.

    The table entries are ints, so each c + m * eps is already a Fraction.
    """
    e = rat(eps)
    return [[[c + m * e for c, m in row] for row in stage] for stage in REDUCTION_STAGES]


@dataclass
class ReplayResult:
    """One full replay run against the frozen stage goldens."""

    eps: Fraction
    form: AlmostDiagonalForm
    certificate: PsdCertificate
    stages: list[Matrix]
    mismatches: list[dict]

    @property
    def final_disks(self) -> GershgorinReport:
        return self.certificate.final_disks

    @property
    def matches(self) -> bool:
        return len(self.stages) == len(REDUCTION_STAGES) and not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "eps": rat_str(self.eps),
            "pivots": [{"H": h, "S": s} for h, s in CANONICAL_PIVOTS],
            "verdict": self.certificate.verdict,
            "matches": self.matches,
            "mismatches": self.mismatches,
            "final_disks": self.final_disks.rows_json(self.certificate.row_labels),
            "stages": [
                [[rat_str(v) for v in row] for row in stage]
                for stage in self.stages
            ],
        }


def replay_demand_reduction(eps: RationalLike) -> ReplayResult:
    """Run the canonical five-pivot reduction and diff it against goldens.

    The comparison target is REDUCTION_STAGES; a mismatch there means
    the pivot mechanics regressed. The certificate comes from the same
    run, so when the final disks do not settle the matrix (they do not,
    for eps above 1/17) the verdict is the exact oracle's.
    """
    e = rat(eps)
    instance = canonical_instance(e)
    form = normalized_demand_form(instance)
    cert = certify_recipe(form, schedule=canonical_schedule())
    stages = cert.trace_matrices
    golden = stage_matrices(e)
    mismatches = []
    for si, (got, want) in enumerate(zip(stages, golden), start=1):
        for i in range(7):
            for j in range(7):
                if got[i][j] != want[i][j]:
                    mismatches.append(
                        {
                            "stage": si,
                            "row": i,
                            "col": j,
                            "computed": rat_str(got[i][j]),
                            "expected": rat_str(want[i][j]),
                        }
                    )
    return ReplayResult(eps=e, form=form, certificate=cert, stages=stages, mismatches=mismatches)
