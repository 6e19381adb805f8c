"""End-to-end command-line behavior, driven through main()."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import momentcert
from momentcert import assemble, from_pseudo, normalized_demand_form
from momentcert import build_mkp, build_schedule, mkp_uniform_solution, schedule_solution
from momentcert import canonical_instance
from momentcert import cli
from momentcert.cli import main
from momentcert.lattice import PSEUDO_PROBABILITIES, LatticeVector
from rank_one_ref import stage_from_json
from replay_ref import stage_matrices

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


def strategy_form():
    return from_pseudo(
        LatticeVector(
            2,
            PSEUDO_PROBABILITIES,
            {0b00: 1, 0b01: "-1/3", 0b10: 1, 0b11: 2},
        ),
        1,
    )


def strategy_adf_payload():
    return strategy_form().to_json_dict()


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

    # each family hands over its own closed-form solution
    cases = [
        ({"family": "mkp", "params": MKP_PARAMS},
         mkp_uniform_solution(build_mkp(3, 2, "1/16", 2), 1)),
        ({"family": "schedule", "params": {"n": 2, "k": "1", "P": "3"}},
         schedule_solution(build_schedule(2, 1, 3))),
    ]
    for payload, p in cases:
        src = write(tmp_path / "inst.json", payload)
        assert main(["decompose", "--instance", src, "--level", "1", "--out", str(out)]) == 0
        assert read(out) == from_pseudo(p, 1).to_json_dict()


MKP_PARAMS = {"blocks": 3, "items_per_block": 2, "eps": "1/16", "T": 2}


def test_decompose_rejects_bad_level(tmp_path, capsys):
    out = tmp_path / "adf.json"
    inputs = [
        ("--input", INDEFINITE_MOMENTS, "5"),
        ("--instance", {"family": "mkp", "params": MKP_PARAMS}, "6"),
    ]
    for flag, payload, level in inputs:
        src = write(tmp_path / "in.json", payload)
        code = main(["decompose", flag, src, "--level", level, "--out", str(out)])
        assert code == 3
        assert not out.exists()


def test_decompose_input_refuses_oversized_level_before_the_transform(
    tmp_path, capsys, monkeypatch
):
    def unreachable(*args, **kwargs):
        raise AssertionError("the 2^n transform ran before the size preflight")

    monkeypatch.setattr(cli, "to_pseudo_probabilities", unreachable)
    src = write(tmp_path / "y.json", {"n": 13, "values": {"{}": "1"}})
    out = tmp_path / "adf.json"
    assert main(["decompose", "--input", src, "--level", "13", "--out", str(out)]) == 3
    assert "above the limit of 4096" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [13, 24])
def test_decompose_instance_refuses_oversized_knapsack_before_building(
    n, tmp_path, capsys, monkeypatch
):
    def unreachable(*args, **kwargs):
        raise AssertionError("the 2^n knapsack solution was built before the size preflight")

    monkeypatch.setattr(momentcert.gaps, "knapsack_solution", unreachable)
    payload = {"family": "knapsack", "params": {"n": n, "P": str(2 ** (2 * n + 1))}}
    src = write(tmp_path / "inst.json", payload)
    out = tmp_path / "adf.json"
    assert main(["decompose", "--instance", src, "--level", "1", "--out", str(out)]) == 3
    assert "above the limit of 4096" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_refuses_a_transform_past_the_entry_limit(tmp_path):
    # One moment on all 24 elements plus {}: the down-closure has 2^24
    # masks, and the transform must stop once a round passes 2^14 entries.
    # The child's address space is capped, so a missing limit fails the
    # test instead of filling the machine's memory.
    full = "{" + ",".join(str(i) for i in range(1, 25)) + "}"
    src = write(tmp_path / "moments.json", {"n": 24, "values": {"{}": "1", full: "1"}})
    out = tmp_path / "adf.json"
    child = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from momentcert.cli import main\n"
        "start = time.monotonic()\n"
        "code = main(sys.argv[1:])\n"
        "print(code, time.monotonic() - start)\n"
    )
    argv = ["decompose", "--input", src, "--level", "1", "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(momentcert.__file__)))
    run = subprocess.run([sys.executable, "-c", child, *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    code, seconds = run.stdout.split()
    assert int(code) == 3
    assert float(seconds) < 1
    assert "above the limit of 16384" in run.stderr
    assert not out.exists()


def test_decompose_rejects_malformed_values(tmp_path, capsys):
    out = tmp_path / "adf.json"
    inputs = [
        ("--input", {"n": 2, "values": {"{}": "1/0"}}),
        ("--input", {"n": 2, "values": []}),
        ("--instance", {"family": "mkp", "params": dict(MKP_PARAMS, blocks="x")}),
        ("--instance", {"family": "mkp", "params": dict(MKP_PARAMS, blocks=3.7)}),
        # an exponent stands for a huge integer; only p/q is accepted
        ("--input", {"n": 2, "values": {"{}": "1e5000"}}),
        # a JSON boolean is not a rational, although bool subclasses int
        ("--input", {"n": 2, "values": {"{}": True}}),
        # int() reads "{0_1}" as {1}; a subset element is ASCII digits only
        ("--input", {"n": 2, "values": {"{}": "1", "{0_1}": "1/2"}}),
    ]
    # integer fields take JSON integers only: no truncation, no coercion
    for n in (2.9, True, "2"):
        inputs.append(("--input", {"n": n, "values": {"{}": "1"}}))
    # a family that is not a string, and a rational field given as a JSON float
    inputs.append(("--instance", {"family": [], "params": {}}))
    inputs.append(("--instance", {"family": "knapsack", "params": {"n": 2, "P": 2.5}}))
    for flag, payload in inputs:
        src = write(tmp_path / "in.json", payload)
        assert main(["decompose", flag, src, "--level", "1", "--out", str(out)]) == 2


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def test_certify_disks_only_cannot_settle_the_strategy_matrix(tmp_path, capsys):
    # the strategy form assembles to the strategy matrix; a form's disk rows
    # carry its subset labels, as in every other form certificate, and a
    # raw matrix's its row numbers
    inputs = [
        ("--matrix", STRATEGY_MATRIX, 1, "Inconclusive", ["0", "1", "2"]),
        ("--adf", strategy_adf_payload(), 1, "Inconclusive", ["{}", "{1}", "{2}"]),
        ("--adf", {"n": 2, "t": 0, "diag": {"{}": "-1"}, "terms": [{"J": "{1,2}", "coeff": "1"}]},
         0, "PSD", ["{}"]),
    ]
    for flag, payload, expected, verdict, rows in inputs:
        src = write(tmp_path / "in.json", payload)
        out = tmp_path / "cert.json"
        code = main(
            ["certify", flag, src, "--gershgorin-only", "--out", str(out)]
        )
        assert code == expected
        assert read(out)["verdict"] == verdict
        assert [disk["row"] for disk in read(out)["final_disks"]] == rows
        if flag == "--adf":
            assert main(["certify", flag, src, "--out", str(out)]) == 0
            assert [disk["row"] for disk in read(out)["final_disks"]] == rows


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


def test_certify_refuses_boolean_matrix_entries(tmp_path, capsys):
    # bool subclasses int, but a JSON true is not the rational 1.
    src = write(tmp_path / "m.json", {"rows": [[True, False], [False, True]]})
    out = tmp_path / "cert.json"
    assert main(["certify", "--matrix", src, "--out", str(out)]) == 2
    assert not out.exists()


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


def test_certify_rejects_unreadable_schedules(tmp_path, capsys):
    src = write(tmp_path / "form.json", strategy_adf_payload())
    out = tmp_path / "cert.json"
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json", encoding="utf-8")
    schedules = [
        str(tmp_path / "missing.json"),
        str(garbage),
        write(tmp_path / "label.json", [{"H": 5, "S": "{}"}]),
    ]
    for sched in schedules:
        code = main(
            ["certify", "--adf", src, "--schedule", sched, "--out", str(out)]
        )
        assert code == 2
    assert not out.exists()


def test_certify_rejects_schedule_on_raw_matrix(tmp_path, capsys):
    # A schedule applies only where the recipe pivots: an almost-diagonal
    # input without --gershgorin-only. Elsewhere it is refused, not ignored.
    matrix = write(tmp_path / "m.json", STRATEGY_MATRIX)
    form = write(tmp_path / "form.json", strategy_adf_payload())
    sched = write(tmp_path / "sched.json", [{"H": "{1,2}", "S": "{1}"}])
    out = tmp_path / "cert.json"
    for args in (
        ["--matrix", matrix],
        ["--matrix", matrix, "--gershgorin-only"],
        ["--adf", form, "--gershgorin-only"],
    ):
        code = main(["certify", *args, "--schedule", sched, "--out", str(out)])
        assert code == 3, args
    assert not out.exists()


def test_certify_rejects_garbage_json(tmp_path, capsys):
    src = tmp_path / "m.json"
    out = tmp_path / "cert.json"
    for text in ("not json", '{"rows": 5}', '{"rows": [["1e5000"]]}'):
        src.write_text(text, encoding="utf-8")
        assert main(["certify", "--matrix", str(src), "--out", str(out)]) == 2


def test_certify_rejects_forms_decompose_cannot_write(tmp_path, capsys):
    low_term = {"J": "{1}", "coeff": "2"}
    # G(J) is rebuilt, never read: a term states J and coeff and nothing else
    extra_terms = [
        {"J": "{1,2}", "coeff": "2", "support": [["{}", "-1"], ["{1}", "1"], ["{2}", "1"]]},
        {"J": "{1,2}", "coeff": "2", "note": "x"},
    ]
    out = tmp_path / "cert.json"
    payloads = [
        dict(strategy_adf_payload(), terms=[term]) for term in [low_term, *extra_terms]
    ]
    payloads.append(dict(strategy_adf_payload(), t=1.5))
    for payload in payloads:
        src = write(tmp_path / "form.json", payload)
        assert main(["certify", "--adf", src, "--out", str(out)]) == 2
    assert not out.exists()


def test_certify_refuses_a_form_that_lists_each_support(tmp_path, capsys):
    # the earlier format wrote each term's G(J) as a support list
    form = strategy_form()
    payload = form.to_json_dict()
    for item, term in zip(payload["terms"], form.terms):
        item["support"] = [
            [str(s), str(v)] for s, v in zip(form.index, term.g_vec) if v
        ]
    src = write(tmp_path / "form.json", payload)
    out = tmp_path / "cert.json"
    assert main(["certify", "--adf", src, "--out", str(out)]) == 2
    assert not out.exists()


def test_oversized_index_is_refused_before_it_is_built(tmp_path, capsys):
    # P_24 over n = 24 has 2^24 subsets; both calls must fail on the count
    # alone, before any subset is allocated.
    out = tmp_path / "out.json"
    src = write(tmp_path / "form.json", {"n": 24, "t": 24, "diag": {}, "terms": []})
    assert main(["certify", "--adf", src, "--out", str(out)]) == 2
    argv = ["gap", "mkp", "--eps", "1/16", "--T", "2", "--blocks", "4",
            "--items-per-block", "6", "--level", "23", "--out", str(out)]
    assert main(argv) == 3
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
    # rows in index order, as the disk rows list them
    labels = [row["row"] for row in data["final_disks"]]
    got = [stage_from_json(stage, labels) for stage in data["trace"]]
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
    # n outside 2..24 is refused before 2^(2n+1) is computed.
    out = tmp_path / "report.json"
    for n, k in [(4, 0), (-1, 1), (1, 1), (25, 1)]:
        argv = ["gap", "knapsack", "--n", str(n), "--k", str(k), "--out", str(out)]
        assert main(argv) == 3
        assert not out.exists()


@pytest.mark.parametrize("n", [13, 24])
def test_gap_knapsack_refuses_oversized_n_before_building(
    n, tmp_path, capsys, monkeypatch
):
    def unreachable(*args, **kwargs):
        raise AssertionError("a 2^n list was built before the size preflight")

    for name in ("from_pseudo_probabilities", "to_pseudo_probabilities"):
        monkeypatch.setattr(momentcert.lattice, name, unreachable)
    monkeypatch.setattr(momentcert.gaps, "from_pseudo_probabilities", unreachable)
    monkeypatch.setattr(momentcert.gaps, "knapsack_solution", unreachable)
    out = tmp_path / "report.json"
    assert main(["gap", "knapsack", "--n", str(n), "--k", "1", "--out", str(out)]) == 3
    assert "above the limit of 4096" in capsys.readouterr().err
    assert not out.exists()


def test_gap_knapsack_trace_at_n_12_stays_within_twice_the_plain_report(tmp_path):
    # The stages are written as forms, so the trace grows with their
    # nonzeros; 4095 rows assembled would be 16.7M cells per stage. The
    # child's address space is capped, so assembling them fails the test
    # instead of filling the machine's memory.
    child = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from momentcert.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(momentcert.__file__)))
    sizes = {}
    for flags in ([], ["--trace"]):
        out = tmp_path / f"report{len(flags)}.json"
        argv = ["gap", "knapsack", "--n", "12", "--k", "1", *flags, "--out", str(out)]
        run = subprocess.run([sys.executable, "-c", child, *argv], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        sizes[bool(flags)] = out.stat().st_size
    assert "trace" in read(out)["certificates"][0]
    assert sizes[True] <= 2 * sizes[False]


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


def test_gap_schedule_refuses_a_base_with_find_min_p(tmp_path, capsys, monkeypatch):
    # Either choice alone would be served, so the pair is refused instead of
    # one of them being dropped; no search runs before the refusal.
    def unreachable(*args, **kwargs):
        raise AssertionError("the base search ran although the arguments are refused")

    monkeypatch.setattr(cli, "find_min_feasible_P", unreachable)
    out = tmp_path / "report.json"
    argv = ["gap", "schedule", "--n", "4", "--k", "2", "--P", "6", "--find-min-p"]
    assert main(argv + ["--out", str(out)]) == 3
    assert "exactly one of --P and --find-min-p" in capsys.readouterr().err
    assert not out.exists()


def test_gap_schedule_find_min_p(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["gap", "schedule", "--n", "4", "--k", "2", "--find-min-p", "--out", str(out)]
    )
    assert code == 0
    assert read(out)["instance"]["params"]["P"] == "14"


def test_gap_schedule_find_min_p_decides_each_covering_once(tmp_path, monkeypatch):
    # Each covering is decided right after _covering_orbits builds it, so
    # the last (P, level) built names the matrix that decide_orbits decides.
    import momentcert.gaps
    import momentcert.orbits

    built, decided = [], {}
    covering_orbits = momentcert.gaps._covering_orbits
    decide_orbits = momentcert.orbits.decide_orbits

    def counting_orbits(instance, level):
        built.append((instance.P, level))
        return covering_orbits(instance, level)

    def counting_decide(*args):
        decided[built[-1]] = decided.get(built[-1], 0) + 1
        return decide_orbits(*args)

    monkeypatch.setattr(momentcert.gaps, "_covering_orbits", counting_orbits)
    monkeypatch.setattr(momentcert.orbits, "decide_orbits", counting_decide)
    out = tmp_path / "report.json"
    argv = ["gap", "schedule", "--n", "4", "--k", "2", "--find-min-p", "--out", str(out)]
    assert main(argv) == 0
    assert read(out)["instance"]["params"]["P"] == "14"
    assert {level for P, level in decided if P == 14} == {1, 2, 3, 4}
    assert max(decided.values()) == 1, decided


def test_gap_schedule_find_min_p_certifies_level_3_at_k_1(tmp_path):
    # n = 4, k = 1 certifies level 3; its coverings have 697 dense rows, and
    # the search decides them by orbit blocks in a fresh process.
    src_dir = os.path.dirname(os.path.dirname(momentcert.__file__))
    out = tmp_path / "report.json"
    argv = ["gap", "schedule", "--n", "4", "--k", "1", "--find-min-p", "--out", str(out)]
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "momentcert", *argv],
        env=dict(os.environ, PYTHONPATH=src_dir),
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.monotonic() - started
    assert proc.returncode == 0, proc.stderr
    data = read(out)
    assert data["instance"]["params"]["P"] == "326"
    assert data["level"] == 3 and data["feasible"] is True
    assert elapsed < 60


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
# exit-code boundary
# ---------------------------------------------------------------------------


def test_unwritable_output_exits_2(tmp_path, capsys):
    src = write(tmp_path / "m.json", {"rows": [["1", "0"], ["0", "1"]]})
    out = str(tmp_path / "missing" / "out.json")
    commands = [
        ["certify", "--matrix", src, "--out", out],
        ["gap", "mkp", "--eps", "1/16", "--T", "2", "--out", out],
        ["replay", "--out", out],
    ]
    for argv in commands:
        assert main(argv) == 2
        assert capsys.readouterr().out == ""


def test_internal_error_exits_5_with_a_traceback(monkeypatch, tmp_path, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_replay", crash)
    assert main(["replay", "--out", str(tmp_path / "r.json")]) == 5
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "RuntimeError: boom" in err


def test_main_reuses_the_parser_built_at_import(monkeypatch, tmp_path):
    def refuse():
        raise AssertionError("the parser is rebuilt per call")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert main(["replay", "--out", str(tmp_path / "r.json")]) == 0


def test_module_entry_point_exits_2_on_a_missing_input(tmp_path):
    src_dir = os.path.dirname(os.path.dirname(momentcert.__file__))
    env = dict(os.environ, PYTHONPATH=src_dir)
    argv = ["certify", "--matrix", str(tmp_path / "missing.json")]
    proc = subprocess.run(
        [sys.executable, "-m", "momentcert", *argv, "--out", str(tmp_path / "c.json")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


# The sha256 per workload that tools/artifact_hashes.py prints over the exit
# codes and artifacts of perfbench's first seed-11 jobs. A deliberate
# artifact change updates these pins, and says which fields changed.
ARTIFACT_HASHES = {
    "knapsack": "d7958f0f8e9451ef905d388d82c318fb5e7581737b38ecb57e88936e55311f20",
    "schedule": "dd6f50515078af1330c39b1d7a1c050a00c56bb70269772593d9b9158d8937ba",
    "adf": "d08ec8770cf078ffe8fe574eea0ddcd4e37b73ac791f9e62c4242fae1f347bf7",
    "mkp": "b21c1f982c88d66adfd70347a95aa1234aa0e8ca2b2526976cee2d920f121a77",
}


def test_benchmark_artifacts_keep_their_bytes():
    # A child process, because the tool imports the package afresh from src/.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "tools", "artifact_hashes.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    printed = dict(line.split() for line in proc.stdout.splitlines())
    assert printed == ARTIFACT_HASHES


# ---------------------------------------------------------------------------
# run lifecycle: main writes the artifact and prints the run report
# ---------------------------------------------------------------------------


def test_each_command_prints_one_run_report_for_its_artifact(tmp_path, capsys):
    moments = write(tmp_path / "y.json", INDEFINITE_MOMENTS)
    matrix = write(tmp_path / "m.json", STRATEGY_MATRIX)
    cases = [
        (["decompose", "--input", moments, "--level", "1"], 0,
         {"level": 1, "n": 2}, {"size": 3, "terms": 1}),
        (["certify", "--matrix", matrix], 4,
         {"gershgorin_only": False, "input": matrix},
         {"method": "exact-factorization", "verdict": "PSD"}),
        (["gap", "mkp", "--eps", "1/16", "--T", "2"], 0,
         {"family": "mkp"}, {"feasible": True, "gap": "3/2", "objective": "18/11"}),
        (["replay", "--eps", "1/16"], 0,
         {"eps": "1/16"}, {"matches": True, "verdict": "PSD"}),
    ]
    for argv, code, parameters, verdicts in cases:
        out = tmp_path / f"{argv[0]}.json"
        assert main(argv + ["--out", str(out)]) == code
        stdout = capsys.readouterr().out
        assert stdout.endswith("\n") and stdout.count("\n") == 1
        report = json.loads(stdout)
        assert set(report) == {"command", "parameters", "wall_seconds", "outputs", "verdicts"}
        assert report["command"] == argv[0]
        assert report["outputs"] == [str(out)]
        assert report["parameters"] == parameters
        assert report["verdicts"] == verdicts
        assert isinstance(read(out), dict)


def test_failed_runs_print_no_report_and_leave_no_artifact(monkeypatch, tmp_path, capsys):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_replay", crash)
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json", encoding="utf-8")
    moments = write(tmp_path / "y.json", INDEFINITE_MOMENTS)
    cases = [
        (["certify", "--matrix", str(garbage)], 2),
        (["decompose", "--input", moments, "--level", "5"], 3),
        (["replay"], 5),
    ]
    for argv, code in cases:
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == code
        assert capsys.readouterr().out == ""
        assert not out.exists()


@pytest.mark.parametrize(
    "payload, error",
    [({"x": 1.5}, "TypeError"), ({"x": [F(1, 2)]}, "TypeError"), ({1: "a"}, "TypeError"),
     ({"a": {None: 0}}, "TypeError"), ({"\ud800": 0}, "UnicodeEncodeError")],
)
def test_unwritable_payload_exits_5_and_leaves_no_artifact(
    payload, error, monkeypatch, tmp_path, capsys
):
    monkeypatch.setattr(cli, "cmd_replay", lambda args: (payload, {}, {}, 0))
    out = tmp_path / "r.json"
    assert main(["replay", "--out", str(out)]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert error in captured.err
    assert not out.exists()


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


# Lone surrogates have no UTF-8 form; a payload holding one exits 5 (above).
_JSON_KEYS = st.text(
    alphabet=st.characters(exclude_categories=["Cs"]) | st.sampled_from('"\\/\x00\x1f\x7f\u2028é')
)
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**60), 10**60) | _JSON_KEYS,
    lambda children: (
        st.lists(children, max_size=4) | st.dictionaries(_JSON_KEYS, children, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(_JSON_TREES)
def test_written_json_is_the_stdlib_indented_text(tree):
    expected = json.dumps(tree, sort_keys=True, ensure_ascii=False, indent=2) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tree.json")
        cli._write_json(path, tree)
        with open(path, "rb") as fh:
            assert fh.read() == expected.encode("utf-8")


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


# ---------------------------------------------------------------------------
# fuzzed input files: every payload exits 0-4, never with a traceback
# ---------------------------------------------------------------------------

# Sizes stay within -2..5 (mkp and schedule sizes lower still), so no
# example allocates more than a few hundred entries.
SMALL = st.integers(-2, 5)
RATIONALS = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(-1, 9)),
    st.sampled_from(["1e5000", "1e-3", "2E3", "0.5", "1_0", "\u0661", "", " ", "1/2/3", "x"]),
)
LABELS = st.lists(st.integers(-1, 6), max_size=4).map(
    lambda xs: "{" + ",".join(map(str, xs)) + "}"
)
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), SMALL, st.floats(), RATIONALS, LABELS),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.dictionaries(st.one_of(LABELS, st.text(max_size=3)), kids, max_size=3),
    ),
    max_leaves=8,
)
FIELD = st.one_of(SMALL, RATIONALS, JUNK)

MOMENT_PAYLOADS = st.one_of(
    st.fixed_dictionaries(
        {"n": st.one_of(SMALL, JUNK), "values": st.dictionaries(LABELS, FIELD, max_size=6)}
    ),
    JUNK,
)
INSTANCE_PAYLOADS = st.one_of(
    st.fixed_dictionaries(
        {
            "family": st.sampled_from(["knapsack", "mkp", "schedule", "matching"]),
            "params": st.fixed_dictionaries(
                {},
                optional={
                    "n": st.one_of(st.integers(-2, 3), JUNK),
                    "P": FIELD,
                    "k": FIELD,
                    "blocks": st.one_of(st.integers(-2, 3), JUNK),
                    "items_per_block": st.one_of(st.integers(-2, 3), JUNK),
                    "eps": FIELD,
                    "T": st.one_of(SMALL, JUNK),
                },
            ),
        }
    ),
    JUNK,
)
MATRIX_PAYLOADS = st.one_of(
    st.integers(0, 4).flatmap(
        lambda size: st.lists(
            st.lists(RATIONALS, min_size=size, max_size=size), min_size=size, max_size=size
        )
    ).map(lambda rows: {"rows": [[rows[min(i, j)][max(i, j)] for j in range(len(rows))]
                                  for i in range(len(rows))]}),
    st.fixed_dictionaries({"rows": JUNK}),
    JUNK,
)
SCHEDULE_PAYLOADS = st.one_of(
    st.lists(st.fixed_dictionaries({"H": LABELS, "S": LABELS}), max_size=3),
    JUNK,
)


@st.composite
def adf_payloads(draw):
    """A form decompose can write, with at most one field replaced by junk."""
    n = draw(st.integers(1, 3))
    t = draw(st.integers(0, n))
    values = draw(st.lists(st.integers(-3, 3), min_size=1 << n, max_size=1 << n))
    p = LatticeVector(n, PSEUDO_PROBABILITIES, dict(enumerate(values)))
    payload = from_pseudo(p, t).to_json_dict()
    target = draw(st.sampled_from([None, "n", "t", "diag", "terms", "term"]))
    if target == "term" and payload["terms"]:
        term = draw(st.sampled_from(payload["terms"]))
        term[draw(st.sampled_from(["J", "coeff", "support"]))] = draw(FIELD)
    elif target in payload:
        payload[target] = draw(FIELD)
    return payload


def run_fuzzed(argv, files):
    """main(argv) with each {name} in argv replaced by a file holding files[name]."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, payload in files.items():
            paths[name] = os.path.join(tmp, name)
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
        argv = [a.format(out=os.path.join(tmp, "out.json"), **paths) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert 0 <= code <= 4, err.getvalue()
    assert "Traceback" not in err.getvalue()


FUZZ = settings(max_examples=120, deadline=None)


@FUZZ
@given(MOMENT_PAYLOADS, SMALL)
def test_fuzzed_moments_file_exits_cleanly(payload, level):
    run_fuzzed(
        ["decompose", "--input", "{y}", "--level", str(level), "--out", "{out}"],
        {"y": payload},
    )


@FUZZ
@given(INSTANCE_PAYLOADS, SMALL)
def test_fuzzed_instance_file_exits_cleanly(payload, level):
    run_fuzzed(
        ["decompose", "--instance", "{inst}", "--level", str(level), "--out", "{out}"],
        {"inst": payload},
    )


@FUZZ
@given(adf_payloads(), st.booleans())
def test_fuzzed_adf_file_exits_cleanly(payload, disks_only):
    argv = ["certify", "--adf", "{form}", "--out", "{out}"]
    run_fuzzed(argv + ["--gershgorin-only"] * disks_only, {"form": payload})


@FUZZ
@given(MATRIX_PAYLOADS, st.booleans())
def test_fuzzed_matrix_file_exits_cleanly(payload, disks_only):
    argv = ["certify", "--matrix", "{m}", "--out", "{out}"]
    run_fuzzed(argv + ["--gershgorin-only"] * disks_only, {"m": payload})


@FUZZ
@given(SCHEDULE_PAYLOADS)
def test_fuzzed_schedule_file_exits_cleanly(payload):
    run_fuzzed(
        ["certify", "--adf", "{form}", "--schedule", "{sched}", "--out", "{out}"],
        {"form": strategy_adf_payload(), "sched": payload},
    )
