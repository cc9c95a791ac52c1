"""Command-line interface: commands, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from choquet.cli import main
from choquet.io import dump_document, load_set_function
from choquet.setfunction import validate_capacity, validate_signed_capacity

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def v13_file(tmp_path):
    path = tmp_path / "v13.json"
    dump_document({"n": 3, "by_subset": {"1,3": 1.0, "1,2,3": 1.0}}, path)
    return str(path)


@pytest.fixture
def game2_file(tmp_path):
    path = tmp_path / "game2.json"
    dump_document({"n": 2, "by_mask": [0.0, 3.0, -1.0, 2.0]}, path)
    return str(path)


@pytest.fixture
def offset_file(tmp_path):
    path = tmp_path / "offset.json"
    dump_document({"n": 2, "by_mask": [1.0, 3.0, -1.0, 2.0]}, path)
    return str(path)


class TestEval:
    def test_unanimity_min(self, v13_file, capsys):
        code, out, _ = run(["eval", "--capacity", v13_file, "--point", "4,0,2"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "2.0"

    def test_zero_point(self, game2_file, capsys):
        code, out, _ = run(["eval", "--capacity", game2_file, "--point", "0,0"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "0.0"

    def test_hand_value(self, game2_file, capsys):
        code, out, _ = run(["eval", "--capacity", game2_file, "--point", "5,1"], capsys)
        assert code == 0
        assert out.splitlines() == ["14.0", "permutation: 2,1"]

    def test_json_format(self, game2_file, capsys):
        code, out, _ = run(
            ["eval", "--capacity", game2_file, "--point", "5,1", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out) == {"value": 14.0, "permutation": [2, 1]}

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, out, err = run(["eval", "--capacity", str(bad), "--point", "1,2"], capsys)
        assert code == 2
        assert out == ""
        assert err.strip().splitlines()[-1].startswith("error:")

    def test_ground_set_above_bound_exit_2(self, tmp_path, capsys):
        huge = tmp_path / "huge.json"
        huge.write_text('{"n": 40, "by_subset": {"1": 1.0}}')
        code, out, err = run(["eval", "--capacity", str(huge), "--point", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "exceeds" in err

    def test_dimension_mismatch_exit_3(self, game2_file, capsys):
        code, _, err = run(["eval", "--capacity", game2_file, "--point", "1,2,3"], capsys)
        assert code == 3
        assert "point" in err

    def test_not_a_game_exit_4(self, offset_file, capsys):
        code, _, err = run(["eval", "--capacity", offset_file, "--point", "0,1"], capsys)
        assert code == 4
        assert "empty set" in err

    def test_lovasz_allows_offset(self, offset_file, capsys):
        code, out, _ = run(
            ["eval", "--capacity", offset_file, "--point", "0,1", "--lovasz"], capsys
        )
        assert code == 0
        assert out.splitlines()[0] == "-1.0"


class TestMobius:
    def test_unanimity_single_key(self, v13_file, capsys):
        code, out, _ = run(["mobius", "--capacity", v13_file], capsys)
        assert code == 0
        doc = json.loads(out)
        nonzero = {k: v for k, v in doc["by_subset"].items() if v != 0}
        assert nonzero == {"1,3": 1.0}

    def test_hand_example(self, game2_file, capsys):
        code, out, _ = run(["mobius", "--capacity", game2_file], capsys)
        doc = json.loads(out)
        assert doc["by_subset"] == {"": 0.0, "1": 3.0, "2": -1.0, "1,2": 0.0}

    def test_invert_round_trip_byte_identical(self, game2_file, tmp_path, capsys):
        m_path = str(tmp_path / "m.json")
        back_path = str(tmp_path / "back.json")
        assert main(["mobius", "--capacity", game2_file, "--out", m_path]) == 0
        assert main(["mobius", "--capacity", m_path, "--invert", "--out", back_path]) == 0
        capsys.readouterr()
        original = json.loads(Path(game2_file).read_text())
        restored = load_set_function(back_path)
        assert restored.values.tolist() == original["by_mask"]
        # and transforming the restored file again reproduces m.json exactly
        code, out, _ = run(["mobius", "--capacity", back_path], capsys)
        assert out == Path(m_path).read_text()


class TestCheck:
    def test_choquet_on_random_capacity(self, capsys):
        code, out, _ = run(
            ["check", "--axiom", "comonotonic-additivity", "--n", "3", "--trials", "300"],
            capsys,
        )
        assert code == 0
        assert "verdict: satisfied-on-samples" in out

    def test_capacity_file(self, game2_file, capsys):
        code, out, _ = run(
            ["check", "--axiom", "positive-homogeneity", "--capacity", game2_file,
             "--trials", "200"],
            capsys,
        )
        assert code == 0

    def test_multilinear_interval_scale_witness(self, capsys):
        code, out, _ = run(
            ["check", "--axiom", "interval-scale", "--family", "multilinear",
             "--subset", "1,2", "--trials", "50", "--format", "json"],
            capsys,
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "falsified"
        assert doc["witness"]["lhs"] == 4.0
        assert doc["witness"]["rhs"] == 2.0
        assert doc["witness"]["inputs"]["r"] == 1.0
        assert doc["witness"]["inputs"]["s"] == 1.0

    def test_unknown_axiom_exit_2(self, capsys):
        code, _, err = run(["check", "--axiom", "associativity", "--n", "2"], capsys)
        assert code == 2

    def test_subset_required_for_zero_on_basis(self, capsys):
        code, _, err = run(["check", "--axiom", "zero-on-basis", "--n", "3"], capsys)
        assert code == 2
        assert "--subset" in err

    def test_vstar_family_needs_n3(self, capsys):
        code, _, err = run(
            ["check", "--axiom", "linearity-in-capacity", "--family", "vstar-patch", "--n", "2"],
            capsys,
        )
        assert code == 2

    def test_conflicting_n_and_capacity(self, game2_file, capsys):
        code, _, err = run(
            ["check", "--axiom", "positive-homogeneity", "--capacity", game2_file, "--n", "3"],
            capsys,
        )
        assert code == 2
        assert "conflicts" in err

    def test_tolerance_override(self, capsys):
        # a threshold above every reachable discrepancy turns the verdict around
        code, out, _ = run(
            ["check", "--axiom", "interval-scale", "--family", "multilinear",
             "--subset", "1,2", "--trials", "20", "--tolerance", "1e6"],
            capsys,
        )
        assert code == 0
        assert "satisfied-on-samples" in out

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_tolerance_must_be_finite_and_nonnegative(self, value, capsys):
        code, out, err = run(
            ["check", "--axiom", "positive-homogeneity", "--n", "2", "--trials", "5",
             f"--tolerance={value}"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "tolerance" in err

    def test_subset_error_names_the_element(self, capsys):
        code, _, err = run(["check", "--axiom", "zero-on-basis", "--n", "2", "--subset", "1,3"], capsys)
        assert code == 2
        assert "element 3" in err

    @pytest.mark.parametrize("axiom_args", [
        ["--axiom", "comonotonic-additivity", "--n", "3"],
        ["--axiom", "positive-homogeneity", "--capacity", "GAME2"],
        ["--axiom", "interval-scale", "--family", "multilinear", "--subset", "1,2"],
        ["--axiom", "linearity-in-capacity", "--n", "2"],
    ])
    def test_negative_seed_exit_2(self, axiom_args, game2_file, capsys):
        args = [game2_file if a == "GAME2" else a for a in axiom_args]
        code, out, err = run(["check", *args, "--trials", "3", "--seed", "-1"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: expected non-negative integer\n"

    def test_single_trial_deterministic_report(self, capsys):
        args = ["check", "--axiom", "comonotonic-affinity", "--n", "4",
                "--trials", "1", "--seed", "9", "--format", "json"]
        _, first, _ = run(args, capsys)
        _, second, _ = run(args, capsys)
        assert first == second


class TestIndependenceSuite:
    def test_default_run_exits_zero(self, capsys):
        code, out, _ = run(["independence-suite", "--trials", "150"], capsys)
        assert code == 0
        assert "expected pattern: reproduced" in out
        falsified_rows = [l for l in out.splitlines() if "FALSIFIED" in l]
        assert len(falsified_rows) == 3

    def test_verdict_matrix_seed_stable(self, capsys):
        def verdicts(seed):
            _, out, _ = run(
                ["independence-suite", "--trials", "150", "--seed", seed, "--format", "json"],
                capsys,
            )
            return [(c["family"], c["condition"], c["falsified"]) for c in json.loads(out)["cells"]]

        assert verdicts("1") == verdicts("2")

    def test_negative_seed_exit_2(self, capsys):
        for extra in ([], ["--paper-witnesses-only"]):
            code, out, err = run(["independence-suite", "--trials", "3", "--seed", "-1", *extra], capsys)
            assert code == 2
            assert out == ""
            assert err == "error: expected non-negative integer\n"

    def test_paper_witnesses_only(self, capsys):
        code, out, _ = run(
            ["independence-suite", "--paper-witnesses-only", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["matches_expected"] is True
        assert doc["paper_witnesses_only"] is True


class TestRandomCapacity:
    def test_monotone_validates(self, tmp_path, capsys):
        path = str(tmp_path / "mono.json")
        code, _, _ = run(
            ["random-capacity", "--n", "3", "--kind", "monotone", "--out", path], capsys
        )
        assert code == 0
        validate_capacity(load_set_function(path))

    def test_signed_validates(self, tmp_path, capsys):
        path = str(tmp_path / "signed.json")
        run(["random-capacity", "--n", "4", "--kind", "signed", "--out", path], capsys)
        validate_signed_capacity(load_set_function(path))

    def test_normalized_full_set_exactly_one(self, tmp_path, capsys):
        path = str(tmp_path / "norm.json")
        run(
            ["random-capacity", "--n", "3", "--kind", "normalized-monotone",
             "--seed", "8", "--out", path],
            capsys,
        )
        mu = validate_capacity(load_set_function(path))
        assert mu.values[-1] == 1.0

    def test_same_flags_identical_files(self, tmp_path, capsys):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        run(["random-capacity", "--n", "4", "--kind", "monotone", "--seed", "3", "--out", a], capsys)
        run(["random-capacity", "--n", "4", "--kind", "monotone", "--seed", "3", "--out", b], capsys)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_invalid_kind_exit_2(self, capsys):
        code, _, _ = run(["random-capacity", "--n", "3", "--kind", "convex"], capsys)
        assert code == 2

    def test_n_out_of_range_exit_2(self, capsys):
        code, _, _ = run(["random-capacity", "--n", "25", "--kind", "signed"], capsys)
        assert code == 2


class TestOracleCommand:
    def test_naive_mobius(self, game2_file, capsys):
        code, out, _ = run(["oracle", "mobius", "--capacity", game2_file], capsys)
        assert code == 0
        assert json.loads(out)["by_subset"] == {"": 0.0, "1": 3.0, "2": -1.0, "1,2": 0.0}

    def test_choquet_perms(self, game2_file, capsys):
        code, out, _ = run(
            ["oracle", "choquet-perms", "--capacity", game2_file, "--point", "5,1"], capsys
        )
        assert code == 0
        assert out.splitlines() == ["14.0", "distinct: 1"]

    def test_affine_check(self, game2_file, capsys):
        code, out, _ = run(
            ["oracle", "affine-check", "--capacity", game2_file, "--order", "2,1",
             "--trials", "30"],
            capsys,
        )
        assert code == 0
        assert out.strip() == "affine: true"

    def test_affine_check_order_must_be_integers(self, game2_file, capsys):
        code, out, err = run(
            ["oracle", "affine-check", "--capacity", game2_file, "--order", "x"], capsys
        )
        assert (code, out) == (2, "")
        assert err == "error: --order 'x': 'x' is not an integer\n"


def test_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
    capacity = tmp_path / "v.json"
    dump_document({"n": 2, "by_mask": [0.0, 0.0, 0.0, 1.0]}, capacity)
    proc = subprocess.run(
        [sys.executable, "-m", "choquet", "eval", "--capacity", str(capacity), "--point", "2,7"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "2.0"
