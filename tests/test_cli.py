"""End-to-end command-line behavior, driven through main()."""

import json
from fractions import Fraction as F

import pytest

from momentcert import assemble, from_pseudo, normalized_demand_form
from momentcert import canonical_instance, stage_matrices
from momentcert.cli import main
from momentcert.lattice import PSEUDO_PROBABILITIES, LatticeVector

INDEFINITE_MOMENTS = {
    "n": 2,
    "values": {"{}": "1", "{1}": "1", "{2}": "1", "{1,2}": "1/4"},
}

STRATEGY_MATRIX = {
    "rows": [
        ["3", "-2", "-2"],
        ["-2", "5/3", "2"],
        ["-2", "2", "3"],
    ]
}


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def strategy_adf_payload():
    form = from_pseudo(
        LatticeVector(
            2,
            PSEUDO_PROBABILITIES,
            {0b00: 1, 0b01: "-1/3", 0b10: 1, 0b11: 2},
        ),
        1,
    )
    return form.to_json_dict()


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_moments_file(tmp_path, capsys):
    src = write(tmp_path / "y.json", INDEFINITE_MOMENTS)
    out = tmp_path / "adf.json"
    assert main(["decompose", "--input", src, "--level", "1", "--out", str(out)]) == 0
    data = read(out)
    assert data["n"] == 2 and data["t"] == 1
    assert [term["J"] for term in data["terms"]] == ["{1,2}"]
    assert data["diag"]["{}"] == "-3/4"
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "decompose"
    assert report["verdicts"] == {"terms": 1, "size": 3}


def test_decompose_at_the_top_level_has_no_terms(tmp_path, capsys):
    src = write(tmp_path / "y.json", INDEFINITE_MOMENTS)
    out = tmp_path / "adf.json"
    assert main(["decompose", "--input", src, "--level", "2", "--out", str(out)]) == 0
    assert read(out)["terms"] == []


def test_decompose_instance_file(tmp_path, capsys):
    src = write(
        tmp_path / "inst.json",
        {"family": "knapsack", "params": {"n": 2, "P": "32"}},
    )
    out = tmp_path / "adf.json"
    assert main(["decompose", "--instance", src, "--level", "1", "--out", str(out)]) == 0
    data = read(out)
    assert data["diag"]["{}"] == "1325/1953"
    (term,) = data["terms"]
    assert term["J"] == "{1,2}" and term["coeff"] == "4/63"


def test_decompose_rejects_bad_level(tmp_path, capsys):
    src = write(tmp_path / "y.json", INDEFINITE_MOMENTS)
    out = tmp_path / "adf.json"
    code = main(["decompose", "--input", src, "--level", "5", "--out", str(out)])
    assert code == 3
    assert not out.exists()


def test_decompose_rejects_malformed_values(tmp_path, capsys):
    out = tmp_path / "adf.json"
    for payload in ({"n": 2, "values": {"{}": "1/0"}}, {"n": 2, "values": []}):
        src = write(tmp_path / "y.json", payload)
        assert main(["decompose", "--input", src, "--level", "1", "--out", str(out)]) == 2


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_disks_only_cannot_settle_the_strategy_matrix(tmp_path, capsys):
    # the strategy form assembles to the strategy matrix
    inputs = [("--matrix", STRATEGY_MATRIX), ("--adf", strategy_adf_payload())]
    for flag, payload in inputs:
        src = write(tmp_path / "in.json", payload)
        out = tmp_path / "cert.json"
        code = main(
            ["certify", flag, src, "--gershgorin-only", "--out", str(out)]
        )
        assert code == 1
        assert read(out)["verdict"] == "Inconclusive"


def test_certify_recipe_settles_the_strategy_form(tmp_path, capsys):
    src = write(tmp_path / "form.json", strategy_adf_payload())
    out = tmp_path / "cert.json"
    assert main(["certify", "--adf", src, "--out", str(out)]) == 0
    data = read(out)
    assert data["verdict"] == "PSD"
    assert data["schedule"] == [{"H": "{1,2}", "S": "{1}"}]
    assert data["final_disks"][0] == {
        "row": "{}",
        "center": "2/3",
        "radius": "2/3",
    }


def test_certify_raw_matrix_falls_back_to_the_oracle(tmp_path, capsys):
    src = write(tmp_path / "m.json", STRATEGY_MATRIX)
    out = tmp_path / "cert.json"
    code = main(["certify", "--matrix", src, "--out", str(out)])
    assert code == 4
    assert read(out)["verdict"] == "PSD"


def test_certify_identity_matrix_passes_by_disks(tmp_path, capsys):
    src = write(
        tmp_path / "m.json",
        {"rows": [["1", "0"], ["0", "1"]]},
    )
    out = tmp_path / "cert.json"
    assert main(["certify", "--matrix", src, "--out", str(out)]) == 0
    assert read(out)["verdict"] == "PSD"


def test_certify_indefinite_matrix_exits_negative(tmp_path, capsys):
    src = write(
        tmp_path / "m.json",
        {"rows": [["1", "1", "1"], ["1", "1", "1/4"], ["1", "1/4", "1"]]},
    )
    out = tmp_path / "cert.json"
    assert main(["certify", "--matrix", src, "--out", str(out)]) == 1
    data = read(out)
    assert data["verdict"] == "NotPSD"
    assert "witness" in data


def test_certify_rejects_invalid_pivot(tmp_path, capsys):
    p = LatticeVector(
        3,
        PSEUDO_PROBABILITIES,
        {0b000: 1, 0b011: "1/2"},
    )
    src = write(tmp_path / "form.json", from_pseudo(p, 1).to_json_dict())
    sched = write(tmp_path / "sched.json", [{"H": "{1,2}", "S": "{3}"}])
    out = tmp_path / "cert.json"
    code = main(
        ["certify", "--adf", src, "--schedule", sched, "--out", str(out)]
    )
    assert code == 3


def test_certify_rejects_schedule_on_raw_matrix(tmp_path, capsys):
    src = write(tmp_path / "m.json", STRATEGY_MATRIX)
    sched = write(tmp_path / "sched.json", [{"H": "{1,2}", "S": "{1}"}])
    out = tmp_path / "cert.json"
    code = main(
        ["certify", "--matrix", src, "--schedule", sched, "--out", str(out)]
    )
    assert code == 3


def test_certify_rejects_garbage_json(tmp_path, capsys):
    src = tmp_path / "m.json"
    out = tmp_path / "cert.json"
    for text in ("not json", '{"rows": 5}'):
        src.write_text(text, encoding="utf-8")
        assert main(["certify", "--matrix", str(src), "--out", str(out)]) == 2


def test_certify_rejects_forms_decompose_cannot_write(tmp_path, capsys):
    low_term = {"J": "{1}", "coeff": "2", "support": [["{}", "-1"], ["{1}", "1"]]}
    bent_term = {
        "J": "{1,2}",
        "coeff": "2",
        "support": [["{}", "-1"], ["{1}", "2"], ["{2}", "1"]],
    }
    out = tmp_path / "cert.json"
    for term in (low_term, bent_term):
        payload = dict(strategy_adf_payload(), terms=[term])
        src = write(tmp_path / "form.json", payload)
        assert main(["certify", "--adf", src, "--out", str(out)]) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# certify: the worked five-pivot schedule
# ---------------------------------------------------------------------------


def canonical_files(tmp_path, eps):
    form = normalized_demand_form(canonical_instance(eps))
    src = write(tmp_path / "demand.json", form.to_json_dict())
    sched = write(
        tmp_path / "sched.json",
        [
            {"H": "{1,2}", "S": "{}"},
            {"H": "{1,3}", "S": "{3}"},
            {"H": "{2,4}", "S": "{4}"},
            {"H": "{1,5}", "S": "{5}"},
            {"H": "{2,6}", "S": "{6}"},
        ],
    )
    return src, sched


def test_certify_five_pivot_schedule_settles_small_eps(tmp_path, capsys):
    src, sched = canonical_files(tmp_path, F(1, 32))
    out = tmp_path / "cert.json"
    code = main(
        [
            "certify",
            "--adf",
            src,
            "--schedule",
            sched,
            "--trace",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = read(out)
    assert data["verdict"] == "PSD"
    golden = stage_matrices(F(1, 32))
    got = [
        [[F(v) for v in row] for row in stage] for stage in data["trace"]
    ]
    assert got == golden


def test_certify_five_pivot_schedule_boundary_eps_needs_the_oracle(tmp_path, capsys):
    src, sched = canonical_files(tmp_path, F(1, 16))
    out = tmp_path / "cert.json"
    code = main(
        ["certify", "--adf", src, "--schedule", sched, "--out", str(out)]
    )
    assert code == 4
    assert read(out)["verdict"] == "PSD"


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------


def test_gap_knapsack_reaches_the_requested_factor(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["gap", "knapsack", "--n", "4", "--k", "2", "--out", str(out)])
    assert code == 0
    data = read(out)
    assert data["feasible"] is True
    assert F(data["gap"]) >= 2
    assert F(data["objective"]) <= F(1, 2)
    targets = [c["target"] for c in data["certificates"]]
    assert targets == ["moment-matrix", "covering", "covering-oracle"]


def test_gap_knapsack_rejects_bad_factor(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["gap", "knapsack", "--n", "4", "--k", "0", "--out", str(out)]) == 3


def test_gap_mkp_exit_tracks_the_demand(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["gap", "mkp", "--eps", "1/16", "--T", "2", "--out", str(out)])
    assert code == 0
    data = read(out)
    assert data["gap"] == "3/2"

    code = main(["gap", "mkp", "--eps", "1/8", "--T", "2", "--out", str(out)])
    assert code == 1
    assert read(out)["feasible"] is False


def test_gap_schedule_at_explicit_base(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["gap", "schedule", "--n", "4", "--k", "2", "--P", "14", "--out", str(out)]
    )
    assert code == 0
    data = read(out)
    assert data["gap"] == "2"
    assert data["instance"]["params"]["P"] == "14"

    code = main(
        ["gap", "schedule", "--n", "4", "--k", "2", "--P", "3", "--out", str(out)]
    )
    assert code == 1


def test_gap_schedule_requires_a_base_choice(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["gap", "schedule", "--n", "4", "--k", "2", "--out", str(out)]) == 3


def test_gap_schedule_find_min_p(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["gap", "schedule", "--n", "4", "--k", "2", "--find-min-p", "--out", str(out)]
    )
    assert code == 0
    assert read(out)["instance"]["params"]["P"] == "14"


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


def test_replay_matches_the_goldens(tmp_path, capsys):
    out = tmp_path / "replay.json"
    assert main(["replay", "--eps", "1/16", "--out", str(out)]) == 0
    data = read(out)
    assert data["matches"] is True
    assert data["verdict"] == "PSD"
    assert len(data["stages"]) == 6


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_artifacts_are_byte_identical_across_reruns(tmp_path, capsys):
    src = write(tmp_path / "form.json", strategy_adf_payload())
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for out in (first, second):
        assert (
            main(["certify", "--adf", src, "--trace", "--out", str(out)]) == 0
        )
    assert first.read_bytes() == second.read_bytes()

    g1 = tmp_path / "g1.json"
    g2 = tmp_path / "g2.json"
    for out in (g1, g2):
        assert (
            main(
                ["gap", "mkp", "--eps", "1/16", "--T", "2", "--trace", "--out", str(out)]
            )
            == 0
        )
    assert g1.read_bytes() == g2.read_bytes()
