"""The hand-transcribed stage tables of the worked demand reduction, kept beside the tests.

TRANSCRIBED_STAGES is the hand calculation that circulates with the
worked example of momentcert.replay. It disagrees with the exact
reduction, REDUCTION_STAGES, in the top-left cell of every stage, always
by a deficit of exactly 2*eps, and is kept only as a comparison target:
acceptance criterion 7 pins it, and tests/test_replay.py checks that the
two tables differ in that cell alone.
"""

from fractions import Fraction

from momentcert.replay import REDUCTION_STAGES

_TRANSCRIBED_TOP_LEFT = ((2, 0), (2, -1), (2, -2), (2, -3), (2, -4), (2, -10))


def _override_top_left(
    stage: tuple[tuple[tuple[int, int], ...], ...], cell: tuple[int, int]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    first = (cell,) + stage[0][1:]
    return (first,) + stage[1:]


TRANSCRIBED_STAGES = tuple(
    _override_top_left(stage, cell)
    for stage, cell in zip(REDUCTION_STAGES, _TRANSCRIBED_TOP_LEFT)
)


def transcribed_matrices(eps: Fraction) -> list[list[list[Fraction]]]:
    """TRANSCRIBED_STAGES at eps, evaluated as stage_matrices evaluates REDUCTION_STAGES."""
    return [[[c + m * eps for c, m in row] for row in stage] for stage in TRANSCRIBED_STAGES]
