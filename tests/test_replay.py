"""The canonical five-pivot demand reduction and its frozen stage tables."""

from fractions import Fraction as F

from momentcert import (
    CANONICAL_PIVOTS,
    REDUCTION_STAGES,
    assemble,
    canonical_instance,
    canonical_schedule,
    is_psd_exact,
    normalized_demand_form,
    rat_str,
    replay_demand_reduction,
)
import momentcert.replay
from rank_one_ref import as_fractions
from replay_ref import TRANSCRIBED_STAGES, stage_matrices, transcribed_matrices


def test_canonical_schedule_labels():
    assert CANONICAL_PIVOTS == (
        ("{1,2}", "{}"),
        ("{1,3}", "{3}"),
        ("{2,4}", "{4}"),
        ("{1,5}", "{5}"),
        ("{2,6}", "{6}"),
    )
    schedule = canonical_schedule()
    assert [(str(h), str(s)) for h, s in schedule] == list(CANONICAL_PIVOTS)


def test_normalized_demand_form_structure():
    eps = F(1, 16)
    form = normalized_demand_form(canonical_instance(eps))
    # diagonal: constraint value at each subset of cardinality <= 1
    assert form.diag == [
        -eps,
        1 - eps,
        1 - eps,
        -eps,
        -eps,
        -eps,
        -eps,
    ]
    coeffs = {term.J.bits: term.coefficient for term in form.terms}
    assert len(coeffs) == 15
    assert coeffs[0b000011] == 2 - eps
    assert coeffs[0b000101] == 1 - eps
    assert coeffs[0b100010] == 1 - eps
    assert coeffs[0b001100] == -eps
    assert coeffs[0b110000] == -eps


def test_stage_tables_evaluate_linearly_in_eps():
    stages = stage_matrices(F(1, 16))
    assert stages[0][0][0] == 2 - F(2, 16)
    assert stages[-1][0][0] == 2 - F(12, 16)
    assert stages[-1][1][1] == 1 - F(6, 16)
    # symmetry of every stage table
    for stage in stages:
        for i in range(7):
            for j in range(7):
                assert stage[i][j] == stage[j][i]


def test_transcribed_tables_differ_only_in_the_corner():
    for truth, transcribed in zip(REDUCTION_STAGES, TRANSCRIBED_STAGES):
        t_const, t_slope = truth[0][0]
        h_const, h_slope = transcribed[0][0]
        assert (h_const, h_slope) == (t_const, t_slope + 2)
        assert truth[0][1:] == transcribed[0][1:]
        assert truth[1:] == transcribed[1:]


def test_replay_reproduces_the_stage_tables():
    for eps in (F(1, 32), F(1, 16), F(1, 8)):
        result = replay_demand_reduction(eps)
        assert result.matches, result.mismatches
        assert len(result.stages) == 6
        assert [as_fractions(*stage) for stage in result.stages] == stage_matrices(eps)


def test_replay_reports_each_mismatched_cell_on_integers(monkeypatch):
    # against the transcribed tables every stage differs in its top-left cell
    eps = F(3, 64)
    monkeypatch.setattr(momentcert.replay, "REDUCTION_STAGES", TRANSCRIBED_STAGES)
    result = replay_demand_reduction(eps)
    assert not result.matches
    exact, transcribed = stage_matrices(eps), transcribed_matrices(eps)
    assert result.mismatches == [
        {"stage": si, "row": 0, "col": 0, "computed": rat_str(exact[si - 1][0][0]),
         "expected": rat_str(transcribed[si - 1][0][0])}
        for si in range(1, 7)
    ]


def test_replay_final_disks_at_the_boundary_eps():
    result = replay_demand_reduction(F(1, 16))
    disks = result.final_disks
    assert disks.centers[0] == F(5, 4)
    assert disks.radii[0] == F(11, 8)
    # the two singleton rows inside the demanded block sit exactly on the
    # boundary: center 1 - 6 eps equals radius 10 eps at eps = 1/16
    assert disks.centers[1] == disks.radii[1] == F(5, 8)
    assert disks.centers[2] == disks.radii[2] == F(5, 8)
    assert result.certificate.verdict == "PSD"
    assert not result.certificate.recipe_conclusive


def test_replay_verdicts_track_the_oracle():
    for eps, expected in [(F(1, 32), "PSD"), (F(1, 16), "PSD"), (F(1, 8), "NotPSD")]:
        result = replay_demand_reduction(eps)
        assert result.certificate.verdict == expected
        oracle = is_psd_exact(as_fractions(*assemble(result.form)))
        assert oracle.verdict == expected


def test_replay_small_eps_settles_by_disks_alone():
    result = replay_demand_reduction(F(1, 32))
    assert result.certificate.recipe_conclusive
    assert result.final_disks.all_nonnegative


def test_replay_json_payload():
    data = replay_demand_reduction(F(1, 16)).to_json_dict()
    assert set(data) == {
        "eps",
        "pivots",
        "verdict",
        "matches",
        "mismatches",
        "final_disks",
        "stages",
    }
    assert data["matches"] is True
    assert data["pivots"][0] == {"H": "{1,2}", "S": "{}"}
    assert len(data["stages"]) == 6
    assert data["final_disks"][0]["row"] == "{}"
