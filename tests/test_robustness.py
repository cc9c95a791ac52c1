"""Overflow, flag validation and fuzzing: every input ends in a finite value
or a ChoquetError with its documented exit code, never a traceback."""

import io as text_io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from choquet.axioms import (
    Aggregator,
    check_comonotonic_additivity,
    check_comonotonic_affinity,
    check_linearity_in_capacity,
    check_positive_homogeneity,
    evaluate_family,
)
from choquet.cli import main
from choquet.errors import ChoquetError, FileFormatError, GroundSetTooLarge, NonFiniteResult
from choquet.integral import choquet, choquet_mobius, lovasz_extension
from choquet.io import (
    dump_document,
    load_set_function,
    mobius_from_document,
    set_function_from_document,
)
from choquet.setfunction import (
    MobiusRepresentation,
    SetFunction,
    SignedCapacity,
    mobius_transform,
    unanimity_game,
    zeta_transform,
)

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

# Finite values whose integral at (3, 3) overflows.
OVERFLOW_GAME = [0.0, 1e308, 1e308, 1.7e308]
# Finite values whose Mobius coefficient on {1, 2} overflows.
OVERFLOW_MOBIUS = [0.0, -1.7e308, -1.7e308, 1.7e308]


def run(args):
    out, err = text_io.StringIO(), text_io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def assert_error_exit(code, out, err, expected_code=2):
    assert code == expected_code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


class TestOverflowIsAnError:
    def test_choquet(self):
        with pytest.raises(NonFiniteResult, match="choquet") as info:
            choquet(SignedCapacity(2, OVERFLOW_GAME), [3.0, 3.0])
        assert info.value.operation == "choquet"

    def test_lovasz_extension(self):
        with pytest.raises(NonFiniteResult, match="lovasz_extension"):
            lovasz_extension(SetFunction(2, OVERFLOW_GAME), [3.0, 3.0])

    @pytest.mark.parametrize(
        "coefficients", [[0.0, 1e308, 1e308, 1e308], [0.0, 1e308, 1e308, -1e308]]
    )
    def test_choquet_mobius(self, coefficients):
        # the second case sums +inf and -inf to nan
        with pytest.raises(NonFiniteResult, match="choquet_mobius"):
            choquet_mobius(MobiusRepresentation(2, coefficients), [10.0, 10.0])

    def test_mobius_transform(self):
        with pytest.raises(NonFiniteResult, match="mobius_transform"):
            mobius_transform(SetFunction(2, OVERFLOW_MOBIUS))

    def test_zeta_transform(self):
        with pytest.raises(NonFiniteResult, match="zeta_transform"):
            zeta_transform(MobiusRepresentation(2, [0.0, 1e308, 1e308, 1e308]))

    def test_large_finite_values_still_evaluate(self):
        v = SignedCapacity(2, OVERFLOW_GAME)
        assert choquet(v, [0.5, 0.5]).value == 0.5 * 1.7e308

    def test_non_finite_input_message_shows_plain_float(self):
        with pytest.raises(ValueError) as info:
            SetFunction(1, [0.0, float("inf")])
        assert str(info.value) == "non-finite value inf at mask 1"


class TestOverflowInTheCli:
    @pytest.fixture
    def overflow_files(self, tmp_path):
        game, mobius = tmp_path / "game.json", tmp_path / "mobius.json"
        dump_document({"n": 2, "by_mask": OVERFLOW_GAME}, game)
        dump_document({"n": 2, "by_mask": OVERFLOW_MOBIUS}, mobius)
        return str(game), str(mobius)

    @pytest.mark.parametrize("lovasz", [False, True])
    def test_eval_overflow_exit_2(self, overflow_files, lovasz):
        args = ["eval", "--capacity", overflow_files[0], "--point", "3,3"]
        code, out, err = run(args + (["--lovasz"] if lovasz else []))
        assert_error_exit(code, out, err)
        assert ("lovasz_extension" if lovasz else "choquet") in err

    def test_mobius_overflow_exit_2(self, overflow_files):
        code, out, err = run(["mobius", "--capacity", overflow_files[1]])
        assert_error_exit(code, out, err)
        assert "mobius_transform" in err

    def test_zeta_overflow_exit_2(self, overflow_files):
        code, out, err = run(["mobius", "--invert", "--capacity", overflow_files[0]])
        assert_error_exit(code, out, err)
        assert "zeta_transform" in err

    def test_mobius_overflow_stderr_has_only_the_error_line(self, overflow_files):
        # in a fresh interpreter, where no test setting turns warnings into errors
        done = subprocess.run(
            [sys.executable, "-m", "choquet", "mobius", "--capacity", overflow_files[1]],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(REPO_SRC)),
        )
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.splitlines() == [
            "error: mobius_transform overflowed: the result is not a finite float"
        ]


class TestFilesThatCannotBeReadOrWritten:
    """A file the CLI cannot read or write is an input error (exit 2) whose
    message names the path, never a traceback."""

    def test_out_into_a_missing_directory(self, tmp_path):
        game = tmp_path / "game.json"
        dump_document({"n": 2, "by_mask": [0.0, 1.0, 1.0, 2.0]}, game)
        out = tmp_path / "missing" / "x.json"
        code, stdout, err = run(["mobius", "--capacity", str(game), "--out", str(out)])
        assert_error_exit(code, stdout, err)
        assert err.startswith(f"error: cannot write {out}")

    def test_out_onto_a_directory(self, tmp_path):
        code, stdout, err = run(["random-capacity", "--n", "2", "--kind", "signed",
                                 "--out", str(tmp_path)])
        assert_error_exit(code, stdout, err)
        assert err.startswith(f"error: cannot write {tmp_path}")

    @pytest.mark.parametrize("content", [
        b"[" * 100_000,  # deeper than the decoder's recursion limit
        b'{"n": 1, "by_mask": [0.0, \xff]}',  # not UTF-8
    ], ids=["nested", "not-utf-8"])
    def test_unparseable_bytes(self, tmp_path, content):
        path = tmp_path / "capacity.json"
        path.write_bytes(content)
        with pytest.raises(FileFormatError, match=re.escape(str(path))):
            load_set_function(path)
        code, stdout, err = run(["eval", "--capacity", str(path), "--point", "1"])
        assert_error_exit(code, stdout, err)
        assert str(path) in err


class TestCheckSubsetFlag:
    @pytest.mark.parametrize(
        "axiom",
        ["comonotonic-additivity", "positive-homogeneity", "comonotonic-affinity",
         "linearity-in-capacity"],
    )
    @pytest.mark.parametrize("subset", ["1,3", "1"])
    def test_rejected_for_axioms_without_a_subset(self, axiom, subset):
        code, out, err = run(["check", "--axiom", axiom, "--n", "2", "--subset", subset])
        assert_error_exit(code, out, err)
        assert "interval-scale" in err and "zero-on-basis" in err and axiom in err

    @pytest.mark.parametrize("axiom", ["interval-scale", "zero-on-basis"])
    def test_out_of_range_element_named(self, axiom):
        code, out, err = run(["check", "--axiom", axiom, "--n", "2", "--subset", "2,3"])
        assert_error_exit(code, out, err)
        assert "element 3" in err

    def test_nonpositive_element_named_without_n(self):
        code, out, err = run(["check", "--axiom", "zero-on-basis", "--subset", "0"])
        assert_error_exit(code, out, err)
        assert "element 0" in err

    def test_non_integer_element(self):
        code, out, err = run(["check", "--axiom", "zero-on-basis", "--subset", "1,x"])
        assert_error_exit(code, out, err)
        assert "'x' is not an integer" in err

    def test_subset_fixes_the_ground_set(self):
        code, out, _ = run(["check", "--axiom", "interval-scale", "--subset", "2",
                            "--trials", "20", "--format", "json"])
        assert code == 0
        assert json.loads(out)["witness"] is None


@pytest.mark.parametrize("n", ["21", "40"])
def test_random_capacity_bound_reported_by_the_error_handler(n):
    code, out, err = run(["random-capacity", "--n", n, "--kind", "monotone"])
    assert_error_exit(code, out, err)
    assert err == f"error: ground set size {n} exceeds the supported bound 20\n"


class TestSubsetCheckerBound:
    """A ground set above 20 is refused before any game of 2**n values is built."""

    def test_aggregator(self):
        with pytest.raises(GroundSetTooLarge) as info:
            Aggregator("choquet", 21)
        assert (info.value.n, info.value.bound) == (21, 20)

    def test_unanimity_game(self):
        with pytest.raises(GroundSetTooLarge) as info:
            unanimity_game(21, [1])
        assert (info.value.n, info.value.bound) == (21, 20)

    @pytest.mark.parametrize("args", [
        ["--axiom", "zero-on-basis", "--n", "21", "--subset", "1"],
        ["--axiom", "interval-scale", "--subset", "1,21"],
    ])
    def test_cli_exit_2(self, args):
        code, out, err = run(["check", *args])
        assert_error_exit(code, out, err)
        assert err == "error: ground set size 21 exceeds the supported bound 20\n"


class TestOverflowInFamiliesAndArithmetic:
    @pytest.mark.parametrize(
        "family, point", [("multilinear", [1e200, 1e200]), ("weighted-mean", [1e308, 1e308])]
    )
    def test_family_evaluation(self, family, point):
        agg = Aggregator(family, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult, match=f"{family} family"):
                evaluate_family(agg, SignedCapacity(2, [0.0, 0.0, 0.0, 1.0]), point)

    @pytest.mark.parametrize(
        "operation, combine",
        [
            ("set-function addition", lambda f: f + f),
            ("set-function subtraction", lambda f: f - (-1.0 * f)),
            ("set-function scaling", lambda f: f * 1e10),
        ],
    )
    def test_set_function_arithmetic(self, operation, combine):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult) as info:
                combine(SetFunction(1, [0.0, 1e308]))
        assert info.value.operation == operation


class TestOverflowInCheckers:
    """A checker whose sample overflows raises NonFiniteResult naming the
    family's operation; it neither reports a verdict nor lets a warning out."""

    @pytest.mark.parametrize(
        "family, operation",
        [("choquet", "choquet"), ("weighted-mean", "weighted-mean family"),
         ("multilinear", "multilinear family")],
    )
    @pytest.mark.parametrize(
        "check", [check_positive_homogeneity, check_comonotonic_additivity,
                  check_comonotonic_affinity],
    )
    def test_game_checkers(self, family, operation, check):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult, match=operation) as info:
                check(Aggregator(family, 2), SignedCapacity(2, OVERFLOW_GAME), 50, 0)
        assert info.value.operation == operation


class TestLinearityBound:
    @pytest.mark.parametrize("n", [11, 20])
    def test_rejected_before_any_game_is_built(self, n):
        with pytest.raises(GroundSetTooLarge) as info:
            check_linearity_in_capacity(Aggregator("choquet", n), trials=1)
        assert (info.value.n, info.value.bound) == (n, 10)

    def test_bound_itself_runs(self):
        assert not check_linearity_in_capacity(Aggregator("choquet", 10), trials=1).falsified

    def test_cli_exit_2(self):
        code, out, err = run(["check", "--axiom", "linearity-in-capacity", "--n", "20",
                              "--trials", "1"])
        assert_error_exit(code, out, err)
        assert err == "error: ground set size 20 exceeds the supported bound 10\n"


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------

EXTREMES = [0.0, -0.0, 1.0, 1e308, -1e308, 1.7e308, -1.7e308, 5e-324]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=4),
    max_leaves=12,
)
numbers = st.one_of(
    st.sampled_from(EXTREMES),
    st.floats(),
    st.integers(min_value=-(10**400), max_value=10**400),
)
entries = st.one_of(numbers, numbers, numbers, json_values)
subset_keys = st.one_of(
    st.sampled_from(["", "1", "2", "3", "1,2", "2,1", "1,1", "1,2,3", "0", "-1", "5", ",", "1,",
                     " 1", "a"]),
    st.text(max_size=4),
)


@st.composite
def documents(draw):
    """Set-function documents, mostly well-formed in shape, with defects mixed in."""
    n = draw(st.one_of(st.integers(-1, 3), st.integers(-1, 3), st.sampled_from([21, 40, 10**9]),
                       json_values))
    size = 1 << n if isinstance(n, int) and 0 <= n <= 3 else 4
    doc = {"n": n} if draw(st.integers(0, 9)) else {}
    form = draw(st.sampled_from(["by_mask", "by_mask", "by_subset", "both", "neither"]))
    if form in ("by_mask", "both"):
        length = draw(st.sampled_from([size, size, size, max(size - 1, 0), size + 1]))
        doc["by_mask"] = draw(st.lists(entries, min_size=length, max_size=length))
    if form in ("by_subset", "both"):
        doc["by_subset"] = draw(st.dictionaries(subset_keys, entries, max_size=6))
    return doc


any_document = st.one_of(documents(), documents(), json_values)


@settings(max_examples=300, deadline=None)
@given(any_document)
def test_fuzz_documents_end_in_a_value_or_a_domain_error(doc):
    for build in (set_function_from_document, mobius_from_document):
        try:
            f = build(doc)
        except ChoquetError:
            continue
        values = f.values if isinstance(f, SetFunction) else f.coefficients
        assert all(math.isfinite(v) for v in values.tolist())


coordinates = st.one_of(
    st.sampled_from(EXTREMES),
    st.floats(),
    st.floats(min_value=-10.0, max_value=10.0),
)
point_texts = st.one_of(
    st.lists(coordinates, min_size=0, max_size=4).map(lambda xs: ",".join(map(repr, xs))),
    st.text(alphabet="0123456789.,-+eEinfa_ ", max_size=12),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    doc=documents(),
    point=point_texts,
    command=st.sampled_from(["eval", "eval --lovasz", "eval --format json", "mobius",
                             "mobius --invert"]),
)
def test_fuzz_cli_ends_in_a_finite_value_or_a_documented_exit(tmp_path_factory, doc, point,
                                                              command):
    path = tmp_path_factory.mktemp("fuzz") / "capacity.json"
    path.write_text(json.dumps(doc))
    args = command.split() + ["--capacity", str(path)]
    if command.startswith("eval"):
        args.append(f"--point={point}")
    code, out, err = run(args)
    if code != 0:
        assert code in (2, 3, 4), (code, err)
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (out, err)
        return
    assert err == ""
    if command == "eval --format json":
        assert math.isfinite(json.loads(out)["value"])
    elif command.startswith("eval"):
        assert math.isfinite(float(out.splitlines()[0]))
    else:
        assert all(math.isfinite(v) for v in json.loads(out)["by_subset"].values())
