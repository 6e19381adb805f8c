"""The schedule coverings decided densely, kept beside the tests as a reference.

The library decides each prefix covering matrix of gap schedule by its
orbit blocks (momentcert.orbits). The tests check it against the dense
route it replaced: the shifted pseudo-probabilities by constraint_diagonal,
the full moment matrix by moment_matrix, and the exact oracle on its rows.
"""

from fractions import Fraction
from typing import Iterator

from momentcert import (
    PsdCertificate,
    ScheduleInstance,
    constraint_diagonal,
    is_psd_exact,
    moment_matrix,
    schedule_solution,
)


def covering_matrix(instance: ScheduleInstance, level: int) -> list[list[Fraction]]:
    """Rows of covering-level, the shifted moment matrix at level cap - 1."""
    zp = constraint_diagonal(instance.covering_constraint(level), schedule_solution(instance))
    return moment_matrix(zp, instance.level_cap - 1)


def covering_certificates(instance: ScheduleInstance) -> Iterator[PsdCertificate]:
    """The exact oracle's certificate of each covering matrix, level 1 up."""
    for level in range(1, instance.n + 1):
        yield is_psd_exact(covering_matrix(instance, level))
