"""Overflow, flag validation and fuzzing: every input ends in a finite value
or a ChoquetError with its documented exit code, never a traceback."""

import ast
import inspect
import io as text_io
import json
import math
import operator
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import choquet as package
from choquet.axioms import (
    Aggregator,
    check_comonotonic_additivity,
    check_comonotonic_affinity,
    check_interval_scale_covariance,
    check_linearity_in_capacity,
    check_positive_homogeneity,
    check_zero_on_basis,
    evaluate_family,
    independence_suite,
)
from choquet.cli import main
from choquet.errors import (
    ChoquetError,
    DimensionMismatch,
    EmptyT,
    FileFormatError,
    GroundSetTooLarge,
    NonFiniteResult,
    NotAGame,
    UnsupportedGroundSet,
)
from choquet.generate import (
    random_capacity,
    random_normalized_capacity,
    random_set_function,
    random_signed_capacity,
)
from choquet.integral import (
    choquet,
    choquet_mobius,
    common_sort_permutation,
    comonotonic,
    lovasz_extension,
    sort_permutation,
)
from choquet.oracle import (
    choquet_all_permutations, evaluate_family_exact, lovasz_affine_check, mobius_naive,
)
from choquet.io import (
    dump_document,
    format_document,
    load_mobius,
    load_set_function,
    mobius_from_document,
    parse_point,
    set_function_from_document,
    set_function_to_document,
    subset_key,
)
from choquet.setfunction import (
    Capacity,
    MobiusRepresentation,
    SetFunction,
    SignedCapacity,
    as_mask,
    basis_decomposition,
    elements_from_mask,
    full_mask,
    mask_from_elements,
    mobius_transform,
    unanimity_game,
    validate_capacity,
    validate_signed_capacity,
    zeta_transform,
)

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

# Finite values whose integral at (3, 3) overflows.
OVERFLOW_GAME = [0.0, 1e308, 1e308, 1.7e308]
# Finite values whose Mobius coefficient on {1, 2} overflows.
OVERFLOW_MOBIUS = [0.0, -1.7e308, -1.7e308, 1.7e308]
# A game whose multilinear additivity check at seed 37 falsifies at trial 2
# with the finite sides -1.6e308 and 1.22e308, whose difference overflows.
OVERFLOW_DISCREPANCY = [0.0, 0.0, 0.0, 1.2851314763509246e+307]


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

    @pytest.mark.parametrize("values", [
        OVERFLOW_MOBIUS,
        [-1.7e308, 1.7e308, -1.7e308, 1.7e308],  # m(3) is inf - inf
    ], ids=["inf", "nan"])
    def test_mobius_transform(self, values):
        with pytest.raises(NonFiniteResult, match="mobius_transform"):
            mobius_transform(SetFunction(2, values))

    @pytest.mark.parametrize("coefficients", [
        [0.0, 1e308, 1e308, 1e308],
        [1.7e308, 1.7e308, -1.7e308, -1.7e308],  # v(3) is -inf + inf
    ], ids=["inf", "nan"])
    def test_zeta_transform(self, coefficients):
        with pytest.raises(NonFiniteResult, match="zeta_transform"):
            zeta_transform(MobiusRepresentation(2, coefficients))

    def test_mobius_naive(self):
        with pytest.raises(NonFiniteResult, match="mobius_naive"):
            mobius_naive(SetFunction(2, OVERFLOW_MOBIUS))

    def test_choquet_all_permutations(self):
        with pytest.raises(NonFiniteResult, match="choquet_all_permutations"):
            choquet_all_permutations(SignedCapacity(2, OVERFLOW_GAME), [3.0, 3.0])

    def test_large_finite_values_still_evaluate(self):
        v = SignedCapacity(2, OVERFLOW_GAME)
        assert choquet(v, [0.5, 0.5]).value == 0.5 * 1.7e308

    def test_non_finite_input_message_shows_plain_float(self):
        with pytest.raises(ValueError) as info:
            SetFunction(1, [0.0, float("inf")])
        assert str(info.value) == "value at mask 1 must be finite, got inf"


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

    @pytest.mark.parametrize("args, operation", [
        (["mobius", "--capacity", "{mobius}"], "mobius_naive"),
        (["choquet-perms", "--capacity", "{game}", "--point", "3,3"], "choquet_all_permutations"),
    ])
    def test_oracle_overflow_exit_2(self, overflow_files, args, operation):
        game, mobius = overflow_files
        code, out, err = run(["oracle"] + [a.format(game=game, mobius=mobius) for a in args])
        assert_error_exit(code, out, err)
        assert err == f"error: {operation} overflowed: the result is not a finite float\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_check_discrepancy_overflow_exit_2(self, tmp_path, fmt):
        path = tmp_path / "big.json"
        dump_document({"n": 2, "by_mask": OVERFLOW_DISCREPANCY}, path)
        code, out, err = run(["check", "--axiom", "comonotonic-additivity", "--family",
                              "multilinear", "--capacity", str(path), "--trials", "5",
                              "--seed", "37", "--format", fmt])
        assert_error_exit(code, out, err)
        assert err == "error: multilinear family overflowed: the result is not a finite float\n"

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

    # An empty flag value names a path (the current directory), not a missing flag.
    @pytest.mark.parametrize("args", [
        ["random-capacity", "--n", "2", "--kind", "signed", "--out", ""],
        ["mobius", "--capacity", "{game}", "--out", ""],
    ], ids=["random-capacity", "mobius"])
    def test_empty_out_cannot_be_written(self, tmp_path, args):
        game = tmp_path / "game.json"
        dump_document({"n": 2, "by_mask": [0.0, 1.0, 1.0, 2.0]}, game)
        code, stdout, err = run([arg.format(game=game) for arg in args])
        assert_error_exit(code, stdout, err)
        assert err.startswith("error: cannot write : ")

    def test_empty_capacity_cannot_be_read(self):
        code, stdout, err = run(["check", "--axiom", "comonotonic-additivity", "--n", "2",
                                 "--capacity", ""])
        assert_error_exit(code, stdout, err)
        assert err.startswith("error: cannot read : ")

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


class _ClosedStdout(text_io.StringIO):
    """A stdout whose reader has gone: a write (or, with `on="flush"`, the
    flush) raises BrokenPipeError."""

    def __init__(self, on="write"):
        super().__init__()
        self.on = on

    def write(self, text):
        if self.on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)

    def flush(self):
        if self.on == "flush":
            raise BrokenPipeError(32, "Broken pipe")


class _ShortWrites(text_io.RawIOBase):
    """A raw stream that takes at most 7 bytes a write."""

    def __init__(self):
        super().__init__()
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.data += bytes(b[:7])
        return min(7, len(b))


class TestClosedStdout:
    """A stdout closed before the output is written is an input error (exit
    2, one error line), not a falsification (exit 1) and not a traceback."""

    @pytest.mark.parametrize("on", ["write", "flush"])
    @pytest.mark.parametrize("args", [
        ["random-capacity", "--n", "3", "--kind", "signed"],
        ["check", "--axiom", "zero-on-basis", "--family", "weighted-mean", "--subset", "1,2",
         "--trials", "5"],
    ], ids=["random-capacity", "check-falsified"])
    def test_in_process(self, args, on):
        err = text_io.StringIO()
        with redirect_stdout(_ClosedStdout(on)), redirect_stderr(err):
            code = main(args)
        assert code == 2
        assert err.getvalue() == "error: cannot write to stdout: [Errno 32] Broken pipe\n"

    def test_pipe_closed_by_the_reader(self):
        # n = 14 writes about 700 KB, more than a pipe holds, so the reader
        # closes the pipe while the writer still has output to write.  The
        # child's stdout is buffered, as by default.
        self.assert_pipe_closed_by_the_reader(unbuffered=False)

    def test_pipe_closed_by_the_reader_of_an_unbuffered_stdout(self):
        # An unbuffered text stdout (PYTHONUNBUFFERED) takes a short write
        # as whole; the output still goes out in full or ends in the error.
        self.assert_pipe_closed_by_the_reader(unbuffered=True)

    def test_short_writes_are_resumed(self):
        # A text stdout over a raw stream that takes 7 bytes a write, as an
        # unbuffered stdout over a pipe takes what the pipe has room for.
        raw = _ShortWrites()
        stdout = text_io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
        args = ["random-capacity", "--n", "3", "--kind", "signed"]
        with redirect_stdout(stdout):
            assert main(args) == 0
        code, out, err = run(args)
        assert (code, err) == (0, "") and raw.data.decode() == out

    @staticmethod
    def assert_pipe_closed_by_the_reader(unbuffered):
        env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "choquet", "random-capacity", "--n", "14", "--kind", "signed"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(100)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert "Traceback" not in err
        assert err == "error: cannot write to stdout: [Errno 32] Broken pipe\n"


class TestCheckSubsetFlag:
    @pytest.mark.parametrize(
        "axiom",
        ["comonotonic-additivity", "positive-homogeneity", "comonotonic-affinity",
         "linearity-in-capacity"],
    )
    @pytest.mark.parametrize("subset", ["1,3", "1", ""])
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

    @pytest.mark.parametrize("axiom", ["interval-scale", "zero-on-basis"])
    def test_empty_subset_is_given_and_not_an_integer(self, axiom):
        code, out, err = run(["check", "--axiom", axiom, "--n", "2", "--subset", ""])
        assert_error_exit(code, out, err)
        assert err == "error: --subset '': '' is not an integer\n"

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

    def test_discrepancy_beyond_the_float_range(self):
        agg, v = Aggregator("multilinear", 2), SignedCapacity(2, OVERFLOW_DISCREPANCY)
        with pytest.raises(NonFiniteResult) as info:
            check_comonotonic_additivity(agg, v, 5, 37)
        assert info.value.operation == "multilinear family"


class TestLinearityBound:
    @pytest.mark.parametrize("n", [11, 20])
    def test_rejected_before_any_game_is_built(self, n):
        with pytest.raises(GroundSetTooLarge) as info:
            check_linearity_in_capacity(Aggregator("choquet", n), trials=1)
        assert (info.value.n, info.value.bound) == (n, 10)

    def test_rejected_before_the_trial_count(self):
        # The bound belongs to agg, which every checker checks first.
        with pytest.raises(GroundSetTooLarge) as info:
            check_linearity_in_capacity(Aggregator("choquet", 11), trials=0)
        assert (info.value.n, info.value.bound) == (11, 10)

    def test_bound_itself_runs(self):
        assert not check_linearity_in_capacity(Aggregator("choquet", 10), trials=1).falsified

    def test_cli_exit_2(self):
        code, out, err = run(["check", "--axiom", "linearity-in-capacity", "--n", "20",
                              "--trials", "1"])
        assert_error_exit(code, out, err)
        assert err == "error: ground set size 20 exceeds the supported bound 10\n"


# ---------------------------------------------------------------------------
# One rule per argument kind
# ---------------------------------------------------------------------------

NAN, INF = float("nan"), float("inf")
AGG2, AGG3 = Aggregator("choquet", 2), Aggregator("choquet", 3)
GAME2 = SignedCapacity(2, [0.0, 1.0, 0.5, 2.0])
MOBIUS2 = MobiusRepresentation(2, [0.0, 1.0, 0.5, 0.5])
F1 = SetFunction(1, [0.0, 1.0])
NOT_AN_INTEGER = "ground-set size must be an integer, got "
BELOW_ONE = "ground-set size must be >= 1, got "
NOT_FINITE = "point coordinate must be finite, got "
NOT_A_COORDINATE = "point coordinate must be a real number, got "
NOT_A_SCALE_FACTOR = "scale factor must be a real number, got "
NOT_AN_AGGREGATOR = "expected an Aggregator, got "
TOLERANCE = "tolerance must be finite and >= 0, got "

# Entry point, its arguments (one of them bad), the exception class and the
# start of its message.  Ground-set sizes, subset elements and masks, and
# seeds are Python or numpy integers, not bools, and so are trial counts,
# which are >= 1; masks are >= 0; points are sequences of finite
# coordinates, each a float, a numpy real or an int that is not a bool, and
# a scale factor, a tolerance and each value of a set function are one such
# real; a game, set function, Mobius representation or aggregator is an
# instance of its class; point text is a str, and a path a str or PathLike.
ARGUMENT_RULES = [
    pytest.param(SetFunction, (True, [0.0, 1.0]), UnsupportedGroundSet, NOT_AN_INTEGER + "True",
                 id="SetFunction-n-bool"),
    pytest.param(SetFunction, (2.5, [0.0] * 4), UnsupportedGroundSet, NOT_AN_INTEGER + "2.5",
                 id="SetFunction-n-float"),
    pytest.param(SignedCapacity, (np.float64(2.0), [0.0] * 4), UnsupportedGroundSet,
                 NOT_AN_INTEGER, id="SignedCapacity-n-numpy-float"),
    pytest.param(Capacity, (True, [0.0, 1.0]), UnsupportedGroundSet, NOT_AN_INTEGER + "True",
                 id="Capacity-n-bool"),
    pytest.param(MobiusRepresentation, (True, [0.0, 1.0]), UnsupportedGroundSet,
                 NOT_AN_INTEGER + "True", id="MobiusRepresentation-n-bool"),
    pytest.param(Aggregator, ("choquet", True), UnsupportedGroundSet, NOT_AN_INTEGER + "True",
                 id="Aggregator-n-bool"),
    pytest.param(full_mask, (True,), UnsupportedGroundSet, NOT_AN_INTEGER + "True",
                 id="full_mask-n-bool"),
    pytest.param(unanimity_game, (2.5, 1), UnsupportedGroundSet, NOT_AN_INTEGER + "2.5",
                 id="unanimity_game-n-float"),
    pytest.param(unanimity_game, (-1, 1), UnsupportedGroundSet, BELOW_ONE + "-1",
                 id="unanimity_game-n-negative"),
    pytest.param(random_set_function, (True,), UnsupportedGroundSet, NOT_AN_INTEGER + "True",
                 id="random_set_function-n-bool"),
    pytest.param(random_signed_capacity, (2.5,), UnsupportedGroundSet, NOT_AN_INTEGER + "2.5",
                 id="random_signed_capacity-n-float"),
    pytest.param(random_capacity, (-1,), UnsupportedGroundSet, BELOW_ONE + "-1",
                 id="random_capacity-n-negative"),
    pytest.param(random_normalized_capacity, (0,), UnsupportedGroundSet, BELOW_ONE + "0",
                 id="random_normalized_capacity-n-zero"),
    pytest.param(mask_from_elements, ([2.9], 3), ValueError,
                 "subset element must be an integer, got 2.9", id="mask_from_elements-float"),
    pytest.param(mask_from_elements, (["2"], 3), ValueError,
                 "subset element must be an integer, got '2'", id="mask_from_elements-str"),
    pytest.param(as_mask, ("12", 2), ValueError, "subset element must be an integer, got '1'",
                 id="as_mask-str"),
    pytest.param(unanimity_game, (3, 2.0), ValueError, "subset mask must be an integer, got 2.0",
                 id="unanimity_game-subset-float"),
    pytest.param(check_zero_on_basis, (AGG3, [1.9, 2]), ValueError,
                 "subset element must be an integer, got 1.9", id="check_zero_on_basis-subset"),
    pytest.param(check_interval_scale_covariance, (AGG3, [1, True]), ValueError,
                 "subset element must be an integer, got True",
                 id="check_interval_scale_covariance-subset"),
    pytest.param(random_signed_capacity, (2, 2.5), ValueError, "seed must be an integer, got 2.5",
                 id="random_signed_capacity-seed-float"),
    pytest.param(random_set_function, (2, True), ValueError, "seed must be an integer, got True",
                 id="random_set_function-seed-bool"),
    pytest.param(random_capacity, (2, np.float64(1.0)), ValueError, "seed must be an integer",
                 id="random_capacity-seed-numpy-float"),
    pytest.param(random_normalized_capacity, (2, True), ValueError,
                 "seed must be an integer, got True", id="random_normalized_capacity-seed-bool"),
    pytest.param(comonotonic, ([NAN, 1.0], [1.0, 2.0]), ValueError, NOT_FINITE + "nan",
                 id="comonotonic-x"),
    pytest.param(comonotonic, ([1.0, 2.0], [1.0, INF]), ValueError, NOT_FINITE + "inf",
                 id="comonotonic-y"),
    pytest.param(common_sort_permutation, ([NAN, 1.0], [1.0, 2.0]), ValueError,
                 NOT_FINITE + "nan", id="common_sort_permutation-x"),
    pytest.param(sort_permutation, ([NAN, 1.0],), ValueError, NOT_FINITE + "nan",
                 id="sort_permutation-x"),
    # These entry points checked their arguments this way before the rules
    # moved into setfunction and integral._coerce_point.
    pytest.param(choquet, (GAME2, [NAN, 1.0]), ValueError, NOT_FINITE + "nan", id="choquet-x"),
    pytest.param(lovasz_extension, (GAME2, [1.0, INF]), ValueError, NOT_FINITE + "inf",
                 id="lovasz_extension-x"),
    pytest.param(choquet_mobius, (MOBIUS2, [NAN, 0.0]), ValueError, NOT_FINITE + "nan",
                 id="choquet_mobius-x"),
    pytest.param(evaluate_family, (AGG2, GAME2, [NAN, 1.0]), ValueError, NOT_FINITE + "nan",
                 id="evaluate_family-x"),
    pytest.param(comonotonic, ([1.0, 2.0], [1.0, 2.0, 3.0]), DimensionMismatch,
                 "expected a point of length 2, got 3", id="comonotonic-lengths"),
    pytest.param(common_sort_permutation, ([1.0, 2.0, 3.0], [1.0]), DimensionMismatch,
                 "expected a point of length 3, got 1", id="common_sort_permutation-lengths"),
    pytest.param(check_comonotonic_additivity, (AGG2, GAME2, 5, -1), ValueError,
                 "expected non-negative integer", id="check_comonotonic_additivity-seed"),
    pytest.param(check_positive_homogeneity, (AGG2, GAME2, 5, True), ValueError,
                 "seed must be an integer, got True", id="check_positive_homogeneity-seed"),
    pytest.param(check_comonotonic_affinity, (AGG2, GAME2, 5, 2.5), ValueError,
                 "seed must be an integer, got 2.5", id="check_comonotonic_affinity-seed"),
    pytest.param(check_linearity_in_capacity, (AGG2, 5, -1), ValueError,
                 "expected non-negative integer", id="check_linearity_in_capacity-seed"),
    pytest.param(independence_suite, (5, -1), ValueError, "expected non-negative integer",
                 id="independence_suite-seed"),
    pytest.param(choquet, (GAME2, ["1", "2"]), ValueError,
                 NOT_A_COORDINATE + "'1'", id="choquet-x-str"),
    pytest.param(lovasz_extension, (GAME2, [True, False]), ValueError,
                 NOT_A_COORDINATE + "True", id="lovasz_extension-x-bool"),
    pytest.param(evaluate_family, (AGG2, GAME2, [1.0, np.True_]), ValueError,
                 NOT_A_COORDINATE + "np.True_", id="evaluate_family-x-numpy-bool"),
    pytest.param(choquet_mobius, (MOBIUS2, 3.0), ValueError,
                 "point must be a sequence of real numbers, got 3.0", id="choquet_mobius-x-scalar"),
    pytest.param(sort_permutation, ([10**400, 1],), ValueError,
                 "point coordinate must be finite, got inf",
                 id="sort_permutation-x-int-beyond-float"),
    pytest.param(check_comonotonic_additivity, (AGG2, "x", 5), ValueError,
                 "expected a SignedCapacity, got str", id="check_comonotonic_additivity-game"),
    pytest.param(check_positive_homogeneity, (AGG2, SetFunction(2, [1.0, 1.0, 1.0, 1.0]), 5),
                 ValueError, "expected a SignedCapacity, got SetFunction",
                 id="check_positive_homogeneity-game-not-a-game"),
    pytest.param(check_comonotonic_affinity, (AGG2, MOBIUS2, 5), ValueError,
                 "expected a SignedCapacity, got MobiusRepresentation",
                 id="check_comonotonic_affinity-game"),
    # None is not a game either: the runner binds whatever game it is given.
    pytest.param(check_comonotonic_additivity, (AGG2, None, 5), ValueError,
                 "expected a SignedCapacity, got NoneType",
                 id="check_comonotonic_additivity-game-none"),
    pytest.param(check_positive_homogeneity, (AGG2, None, 5), ValueError,
                 "expected a SignedCapacity, got NoneType",
                 id="check_positive_homogeneity-game-none"),
    pytest.param(check_comonotonic_affinity, (AGG2, None, 5), ValueError,
                 "expected a SignedCapacity, got NoneType",
                 id="check_comonotonic_affinity-game-none"),
    pytest.param(evaluate_family, (AGG2, "x", [1.0, 2.0]), ValueError,
                 "expected a SignedCapacity, got str", id="evaluate_family-game"),
    pytest.param(mobius_transform, (MOBIUS2,), ValueError,
                 "expected a SetFunction, got MobiusRepresentation", id="mobius_transform-f"),
    pytest.param(zeta_transform, (GAME2,), ValueError,
                 "expected a MobiusRepresentation, got SignedCapacity", id="zeta_transform-m"),
    pytest.param(basis_decomposition, ("x",), ValueError, "expected a SetFunction, got str",
                 id="basis_decomposition-v"),
    pytest.param(validate_capacity, ([0.0, 1.0],), ValueError,
                 "expected a SetFunction, got list", id="validate_capacity-v"),
    pytest.param(validate_signed_capacity, (None,), ValueError,
                 "expected a SetFunction, got NoneType", id="validate_signed_capacity-f"),
    # The integral routes check the class of their set function.
    pytest.param(choquet, ("x", [1.0]), ValueError, "expected a SetFunction, got str",
                 id="choquet-v"),
    pytest.param(lovasz_extension, (MOBIUS2, [1.0, 2.0]), ValueError,
                 "expected a SetFunction, got MobiusRepresentation", id="lovasz_extension-f"),
    pytest.param(choquet_mobius, (GAME2, [1.0, 2.0]), ValueError,
                 "expected a MobiusRepresentation, got SignedCapacity", id="choquet_mobius-m"),
    # A scale factor is a real number, and a finite one.
    pytest.param(operator.mul, (F1, "2"), ValueError, NOT_A_SCALE_FACTOR + "'2'",
                 id="SetFunction.__mul__-scalar-str"),
    pytest.param(operator.mul, (F1, True), ValueError, NOT_A_SCALE_FACTOR + "True",
                 id="SetFunction.__mul__-scalar-bool"),
    pytest.param(operator.mul, ([3.0], F1), ValueError, NOT_A_SCALE_FACTOR + "[3.0]",
                 id="SetFunction.__rmul__-scalar-list"),
    pytest.param(operator.mul, (F1, 10**400), ValueError,
                 "scale factor must be finite, got inf",
                 id="SetFunction.__mul__-scalar-int-beyond-float"),
    pytest.param(operator.mul, (F1, -10**400), ValueError,
                 "scale factor must be finite, got -inf",
                 id="SetFunction.__mul__-scalar-negative-int-beyond-float"),
    # The oracle's trial count follows the count rule.
    pytest.param(lovasz_affine_check, (GAME2, [1, 2], 0), ValueError,
                 "trials must be >= 1, got 0", id="lovasz_affine_check-trials-zero"),
    pytest.param(lovasz_affine_check, (GAME2, [1, 2], -5), ValueError,
                 "trials must be >= 1, got -5", id="lovasz_affine_check-trials-negative"),
    pytest.param(lovasz_affine_check, (GAME2, [1, 2], 2.5), ValueError,
                 "trials must be an integer, got 2.5", id="lovasz_affine_check-trials-float"),
    # Parameters that had no row of their own.
    pytest.param(check_interval_scale_covariance, (AGG3, [1, 2], 5, 2.5), ValueError,
                 "seed must be an integer, got 2.5", id="check_interval_scale_covariance-seed"),
    pytest.param(check_zero_on_basis, (AGG3, [1, 2], 5, -1), ValueError,
                 "expected non-negative integer", id="check_zero_on_basis-seed"),
    pytest.param(common_sort_permutation, ([1.0, 2.0], [NAN, 1.0]), ValueError,
                 NOT_FINITE + "nan", id="common_sort_permutation-y"),
    pytest.param(mask_from_elements, ([1], True), UnsupportedGroundSet,
                 NOT_AN_INTEGER + "True", id="mask_from_elements-n-bool"),
    pytest.param(mask_from_elements, ([1], 2.5), UnsupportedGroundSet,
                 NOT_AN_INTEGER + "2.5", id="mask_from_elements-n-float"),
    # The oracles apply the same rules; before, each converted its arguments itself.
    pytest.param(choquet_all_permutations, (GAME2, ["1", True]), ValueError,
                 NOT_A_COORDINATE + "'1'", id="choquet_all_permutations-x-str"),
    pytest.param(choquet_all_permutations, (GAME2, [NAN, 1.0]), ValueError, NOT_FINITE + "nan",
                 id="choquet_all_permutations-x-nan"),
    pytest.param(choquet_all_permutations, (GAME2, ["x"]), DimensionMismatch,
                 "expected a point of length 2, got 1", id="choquet_all_permutations-x-length"),
    pytest.param(choquet_all_permutations, ("x", [1.0, 2.0]), ValueError,
                 "expected a SetFunction, got str", id="choquet_all_permutations-v"),
    pytest.param(mobius_naive, ("x",), ValueError, "expected a SetFunction, got str",
                 id="mobius_naive-f"),
    pytest.param(lovasz_affine_check, (GAME2, [1.9, 2.2]), ValueError,
                 "order element must be an integer, got 1.9", id="lovasz_affine_check-order-float"),
    pytest.param(lovasz_affine_check, (GAME2, 3), ValueError,
                 "order must be a sequence of integers, got 3", id="lovasz_affine_check-order-scalar"),
    pytest.param(lovasz_affine_check, (GAME2, [1, 2], 5, True), ValueError,
                 "seed must be an integer, got True", id="lovasz_affine_check-seed-bool"),
    pytest.param(evaluate_family_exact, ("x", GAME2, [1.0, 2.0]), ValueError,
                 NOT_AN_AGGREGATOR + "str", id="evaluate_family_exact-agg"),
    pytest.param(evaluate_family_exact, (AGG2, MOBIUS2, [1.0, 2.0]), ValueError,
                 "expected a SignedCapacity, got MobiusRepresentation",
                 id="evaluate_family_exact-game"),
    pytest.param(evaluate_family_exact, (AGG2, GAME2, [NAN, 1.0]), ValueError, NOT_FINITE + "nan",
                 id="evaluate_family_exact-x"),
    pytest.param(evaluate_family, (AGG3, GAME2, [1.0, 2.0, 3.0]), ValueError,
                 "expected a game on a ground set of size 3, got one of size 2",
                 id="evaluate_family-game-ground-set"),
    pytest.param(evaluate_family_exact, (AGG3, GAME2, [1.0, 2.0, 3.0]), ValueError,
                 "expected a game on a ground set of size 3, got one of size 2",
                 id="evaluate_family_exact-game-ground-set"),
    # A game vanishes on the empty set.
    pytest.param(choquet, (SetFunction(2, [1.0, 0.0, 0.0, 0.0]), [1.0, 2.0]), NotAGame,
                 "set function is not a game: value on the empty set is 1.0, expected exactly 0",
                 id="choquet-v-not-a-game"),
    # A mask is an integer >= 0, and below 2**n on a ground set of size n.
    pytest.param(elements_from_mask, (-1,), ValueError, "subset mask must be >= 0, got -1",
                 id="elements_from_mask-mask-negative"),
    pytest.param(elements_from_mask, (2.5,), ValueError,
                 "subset mask must be an integer, got 2.5", id="elements_from_mask-mask-float"),
    pytest.param(subset_key, (-3,), ValueError, "subset mask must be >= 0, got -3",
                 id="subset_key-mask-negative"),
    pytest.param(subset_key, (True,), ValueError, "subset mask must be an integer, got True",
                 id="subset_key-mask-bool"),
    pytest.param(operator.getitem, (GAME2, -1), ValueError,
                 "mask -1 out of range for ground set of size 2",
                 id="SetFunction.__getitem__-mask-negative"),
    pytest.param(operator.getitem, (GAME2, 4), ValueError,
                 "mask 4 out of range for ground set of size 2",
                 id="SetFunction.__getitem__-mask-too-large"),
    pytest.param(operator.getitem, (GAME2, 1.0), ValueError,
                 "subset mask must be an integer, got 1.0",
                 id="SetFunction.__getitem__-mask-float"),
    pytest.param(operator.getitem, (GAME2, True), ValueError,
                 "subset mask must be an integer, got True",
                 id="SetFunction.__getitem__-mask-bool"),
    pytest.param(operator.getitem, (MOBIUS2, 4), ValueError,
                 "mask 4 out of range for ground set of size 2",
                 id="MobiusRepresentation.__getitem__-mask-too-large"),
    pytest.param(mask_from_elements, (3, 2), ValueError,
                 "subset elements must be a sequence of integers, got 3",
                 id="mask_from_elements-elements-scalar"),
    # The values of a set function are finite reals, each by the rule of a coordinate.
    pytest.param(SetFunction, (2, ["0", "1", "1", "2"]), ValueError,
                 "value at mask 0 must be a real number, got '0'", id="SetFunction-values-str"),
    pytest.param(SetFunction, (2, [0, True, 1, 2]), ValueError,
                 "value at mask 1 must be a real number, got True", id="SetFunction-values-bool"),
    pytest.param(SetFunction, (2, [0, 1, 1, 2**1100]), ValueError,
                 "value at mask 3 must be finite, got inf",
                 id="SetFunction-values-int-beyond-float"),
    pytest.param(SetFunction, (2, [0, 1, 1, -2**1100]), ValueError,
                 "value at mask 3 must be finite, got -inf",
                 id="SetFunction-values-negative-int-beyond-float"),
    pytest.param(SignedCapacity, (2, [None, 1, 1, 2]), ValueError,
                 "value at mask 0 must be a real number, got None",
                 id="SignedCapacity-values-none"),
    pytest.param(SignedCapacity, (1, np.array([False, True])), ValueError,
                 "value at mask 0 must be a real number, got False",
                 id="SignedCapacity-values-bool-array"),
    pytest.param(Capacity, (1, np.array([0, 1j])), ValueError,
                 "value at mask 0 must be a real number, got 0j",
                 id="Capacity-values-complex-array"),
    pytest.param(Capacity, (1, np.array([0.0, NAN])), ValueError,
                 "value at mask 1 must be finite, got nan", id="Capacity-values-nan-array"),
    pytest.param(MobiusRepresentation, (1, [0.0, "1"]), ValueError,
                 "value at mask 1 must be a real number, got '1'",
                 id="MobiusRepresentation-coefficients-str"),
    pytest.param(SetFunction, (2, [0.0, 1.0, 2.0]), ValueError,
                 "expected 4 values for a set function on [2], got shape (3,)",
                 id="SetFunction-values-length"),
    # An aggregator is an Aggregator of a known family.
    pytest.param(Aggregator, ("mean", 2), ValueError, "unknown family 'mean'; expected one of ",
                 id="Aggregator-family-unknown"),
    pytest.param(evaluate_family, ("x", GAME2, [1.0, 2.0]), ValueError,
                 NOT_AN_AGGREGATOR + "str", id="evaluate_family-agg"),
    pytest.param(check_comonotonic_additivity, ("x", GAME2), ValueError,
                 NOT_AN_AGGREGATOR + "str", id="check_comonotonic_additivity-agg"),
    pytest.param(check_positive_homogeneity, (None, GAME2), ValueError,
                 NOT_AN_AGGREGATOR + "NoneType", id="check_positive_homogeneity-agg"),
    pytest.param(check_comonotonic_affinity, (2, GAME2), ValueError,
                 NOT_AN_AGGREGATOR + "int", id="check_comonotonic_affinity-agg"),
    pytest.param(check_interval_scale_covariance, ("x", [1]), ValueError,
                 NOT_AN_AGGREGATOR + "str", id="check_interval_scale_covariance-agg"),
    pytest.param(check_zero_on_basis, ("x", [1]), ValueError,
                 NOT_AN_AGGREGATOR + "str", id="check_zero_on_basis-agg"),
    pytest.param(check_linearity_in_capacity, ("x",), ValueError,
                 NOT_AN_AGGREGATOR + "str", id="check_linearity_in_capacity-agg"),
    # Trials are counts, in every checker and in the suite.
    pytest.param(check_comonotonic_additivity, (AGG2, GAME2, 0), ValueError,
                 "trials must be >= 1, got 0", id="check_comonotonic_additivity-trials"),
    pytest.param(check_positive_homogeneity, (AGG2, GAME2, 2.5), ValueError,
                 "trials must be an integer, got 2.5", id="check_positive_homogeneity-trials"),
    pytest.param(check_comonotonic_affinity, (AGG2, GAME2, True), ValueError,
                 "trials must be an integer, got True", id="check_comonotonic_affinity-trials"),
    pytest.param(check_interval_scale_covariance, (AGG3, [1], -2), ValueError,
                 "trials must be >= 1, got -2", id="check_interval_scale_covariance-trials"),
    pytest.param(check_zero_on_basis, (AGG3, [1], "5"), ValueError,
                 "trials must be an integer, got '5'", id="check_zero_on_basis-trials"),
    pytest.param(check_linearity_in_capacity, (AGG2, 0), ValueError,
                 "trials must be >= 1, got 0", id="check_linearity_in_capacity-trials"),
    pytest.param(independence_suite, (np.float64(5.0),), ValueError,
                 "trials must be an integer, got np.float64(5.0)", id="independence_suite-trials"),
    # A tolerance is a real number, finite and >= 0.
    pytest.param(check_comonotonic_additivity, (AGG2, GAME2, 5, 0, -1e-9), ValueError,
                 TOLERANCE + "-1e-09", id="check_comonotonic_additivity-tolerance"),
    pytest.param(check_positive_homogeneity, (AGG2, GAME2, 5, 0, NAN), ValueError,
                 TOLERANCE + "nan", id="check_positive_homogeneity-tolerance"),
    pytest.param(check_comonotonic_affinity, (AGG2, GAME2, 5, 0, INF), ValueError,
                 TOLERANCE + "inf", id="check_comonotonic_affinity-tolerance"),
    pytest.param(check_interval_scale_covariance, (AGG3, [1], 5, 0, "0"), ValueError,
                 "tolerance must be a real number, got '0'",
                 id="check_interval_scale_covariance-tolerance"),
    pytest.param(check_zero_on_basis, (AGG3, [1], 5, 0, True), ValueError,
                 "tolerance must be a real number, got True", id="check_zero_on_basis-tolerance"),
    pytest.param(check_linearity_in_capacity, (AGG2, 5, 0, 10**400), ValueError,
                 TOLERANCE + str(10**400), id="check_linearity_in_capacity-tolerance"),
    pytest.param(independence_suite, (5, 0, 1), ValueError,
                 "paper_witnesses_only must be a bool, got 1",
                 id="independence_suite-paper_witnesses_only"),
    # Point text is a str, and a path a str or an os.PathLike.
    pytest.param(parse_point, (3,), FileFormatError,
                 "point 3 is not a comma-separated list of decimals", id="parse_point-text-int"),
    pytest.param(parse_point, (b"1,2",), FileFormatError,
                 "point b'1,2' is not a comma-separated list of decimals",
                 id="parse_point-text-bytes"),
    pytest.param(load_set_function, (3,), FileFormatError, "cannot read 3: ",
                 id="load_set_function-path-int"),
    pytest.param(load_mobius, (None,), FileFormatError, "cannot read None: ",
                 id="load_mobius-path-none"),
    pytest.param(dump_document, ({"n": 1}, 3), FileFormatError, "cannot write 3: ",
                 id="dump_document-path-int"),
]


@pytest.mark.parametrize("entry, args, error, start", ARGUMENT_RULES)
def test_bad_argument_raises_its_rule(entry, args, error, start):
    with pytest.raises(error) as info:
        entry(*args)
    assert type(info.value) is error
    assert str(info.value).startswith(start), str(info.value)


# A bad subject of each checker that takes one: a game that is not one, or
# the empty subset, with its error.
BAD_SUBJECTS = [
    *(pytest.param(check, None, ValueError, "expected a SignedCapacity, got NoneType", id=check.__name__)
      for check in (check_comonotonic_additivity, check_positive_homogeneity, check_comonotonic_affinity)),
    *(pytest.param(check, 0, EmptyT, "unanimity games are defined for nonempty subsets only",
                   id=check.__name__) for check in (check_interval_scale_covariance, check_zero_on_basis)),
]


@pytest.mark.parametrize("bad, first", [
    pytest.param({"trials": 0}, "trials must be >= 1, got 0", id="trials"),
    pytest.param({"tolerance": -1}, TOLERANCE + "-1", id="tolerance"),
    pytest.param({"seed": -1}, None, id="seed"),
])
@pytest.mark.parametrize("check, subject, error, message", BAD_SUBJECTS)
def test_every_checker_checks_trials_and_tolerance_then_its_subject_then_the_seed(
        check, subject, error, message, bad, first):
    # The one argument order of the checkers (README): a bad trial count or
    # tolerance is reported before a bad subject, and a bad subject before
    # a bad seed.
    with pytest.raises((ValueError, ChoquetError)) as info:
        check(AGG2, subject, **bad)
    assert (type(info.value), str(info.value)) == ((error, message) if first is None else (ValueError, first))


# Every parameter name of a public entry point, each with the words a row id
# may name it by: the checkers' rows call their parameter v a game.  A name
# missing here has no rule the table above tests.
RULED_PARAMETERS = {
    "n": ("n",), "seed": ("seed",), "subset": ("subset",), "x": ("x",), "y": ("y",),
    "v": ("v", "game"), "f": ("f",), "m": ("m",), "agg": ("agg",),
    "coefficients": ("coefficients",), "elements": ("elements",), "family": ("family",),
    "mask": ("mask",), "paper_witnesses_only": ("paper_witnesses_only",), "path": ("path",),
    "text": ("text",), "tolerance": ("tolerance",), "trials": ("trials",),
    "values": ("values",),
}
# Records of a finished run or a computed result: the package builds them
# from checked arguments.
RECORDS = {"AxiomReport", "IndependenceSummary", "Witness", "SortPermutation",
           "EvaluationResult"}


def _public_parameters():
    """(entry name, parameter name) of every parameter of a public callable
    that is not a record or an exception class."""
    for name in package.__all__:
        entry = getattr(package, name)
        if not callable(entry) or name in RECORDS:
            continue
        if isinstance(entry, type) and issubclass(entry, BaseException):
            continue
        for parameter in inspect.signature(entry).parameters:
            yield name, parameter


def test_every_parameter_of_a_public_entry_point_has_a_rule_and_a_row():
    named = {tuple(row.id.split("-")[:2]) for row in ARGUMENT_RULES}  # (entry, parameter)
    unruled = sorted({p for _, p in _public_parameters() if p not in RULED_PARAMETERS})
    assert unruled == []
    missing = [f"{name}-{p}" for name, p in _public_parameters()
               if not any((name, word) in named for word in RULED_PARAMETERS[p])]
    assert missing == []


def test_every_example_message_of_the_readme_rule_table_is_a_rows_message():
    """The README's "Argument types" table gives one example message per
    rule; each is the message of a row above (one ending in "..." its
    start), and the bullet stays within 25 lines."""
    readme = (REPO_SRC.parent / "README.md").read_text()
    bullet = "* **Argument types.**" + readme.split("* **Argument types.**", 1)[1].split("\n* **")[0]
    assert len(bullet.rstrip().splitlines()) <= 25
    examples = [re.findall(r"`([^`]*)`", line.rsplit("|", 2)[1])[-1]
                for line in bullet.splitlines() if line.lstrip().startswith("| `")]
    starts = {row.values[3] for row in ARGUMENT_RULES}
    assert len(examples) >= 10
    unmatched = [e for e in examples if e not in starts and e.removesuffix("...") not in starts]
    assert unmatched == []


def _conversion_steps(tree: ast.AST):
    """The conversion steps that have one home each, as found in tree: an
    `except OverflowError` (float() of an int beyond the float range) and a
    `.split(",")` call (a comma-separated list)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None and any(
                isinstance(name, ast.Name) and name.id == "OverflowError"
                for name in ast.walk(node.type)):
            yield "except OverflowError"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "split" and len(node.args) == 1
              and isinstance(node.args[0], ast.Constant) and node.args[0].value == ","):
            yield 'split(",")'


def test_each_conversion_step_lives_in_one_module():
    # _finite_float turns an outside number into a float; io parses comma lists.
    homes = {"except OverflowError": set(), 'split(",")': set()}
    for path in Path(package.__file__).parent.glob("*.py"):
        for step in _conversion_steps(ast.parse(path.read_text())):
            homes[step].add(path.stem)
    assert homes == {"except OverflowError": {"setfunction"}, 'split(",")': {"io"}}


def test_every_overflow_is_found_by_checking_the_result():
    # setfunction._finite raises NonFiniteResult for every computed result;
    # the exact oracle sweep compares Fractions with the float range.  No
    # numpy error callback raises it.
    raisers, callbacks = set(), []
    for path in Path(package.__file__).parent.glob("*.py"):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "NonFiniteResult":
                    raisers.add(f"{path.stem}.{function.name}")
                elif name == "errstate" and any(k.arg == "call" for k in node.keywords):
                    callbacks.append(f"{path.stem}.{function.name}")
    assert raisers == {"setfunction._finite", "oracle.choquet_all_permutations"}
    assert callbacks == []


# The functions whose _Fresh arrays are finite by construction: uniform draws
# on bounded intervals, maxima and sums of at most n + 1 of them, the same
# divided by their largest positive value, 0.0 and 1.0, and values that
# _finite_float has read.
FINITE_BY_CONSTRUCTION = {
    "generate.random_set_function",
    "generate.random_signed_capacity",
    "generate.random_capacity",
    "generate.random_normalized_capacity",
    "setfunction.unanimity_game",
    "io.set_function_from_document",
    "io.mobius_from_document",
}


def test_every_fresh_array_is_known_finite():
    # _validated_values does not check a _Fresh array for finiteness, so
    # each one is a _finite(...) result, a local name bound only to calls of
    # a function that returns one, or built by a function listed above.
    def is_finite_call(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_finite"

    trees = {path.stem: ast.parse(path.read_text())
             for path in Path(package.__file__).parent.glob("*.py")}
    returns_finite = {
        node.name for tree in trees.values() for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and all(is_finite_call(r.value) for r in ast.walk(node) if isinstance(r, ast.Return))
    }
    by_construction, unchecked = set(), []
    for module, tree in trees.items():
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            name = f"{module}.{function.name}"
            for call in ast.walk(function):
                if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_Fresh"):
                    continue
                (argument,) = call.args
                sources = [argument]
                if isinstance(argument, ast.Name):  # every binding a plain assignment
                    stores = [node for node in ast.walk(function) if isinstance(node, ast.Name)
                              and node.id == argument.id and isinstance(node.ctx, ast.Store)]
                    sources = [node.value for node in ast.walk(function) if isinstance(node, ast.Assign)
                               and [ast.unparse(t) for t in node.targets] == [argument.id]]
                    if len(sources) != len(stores):
                        sources = []
                if sources and all(is_finite_call(s) or (isinstance(s, ast.Call)
                                                         and getattr(s.func, "id", None) in returns_finite)
                                   for s in sources):
                    continue
                if name in FINITE_BY_CONSTRUCTION:
                    by_construction.add(name)
                else:
                    unchecked.append(f"{name}: _Fresh({ast.unparse(argument)})")
    assert unchecked == []
    assert by_construction == FINITE_BY_CONSTRUCTION  # each entry still builds a _Fresh array


TRIALS_BELOW_ONE = "error: trials must be >= 1, got "
N_BELOW_ONE = "error: ground-set size must be >= 1, got "


@pytest.mark.parametrize("args, expected", [
    pytest.param(["check", "--axiom", "positive-homogeneity", "--n", "2", "--trials", "0"],
                 TRIALS_BELOW_ONE + "0", id="check-trials-zero"),
    pytest.param(["check", "--axiom", "zero-on-basis", "--subset", "1", "--trials", "-3"],
                 TRIALS_BELOW_ONE + "-3", id="check-trials-negative"),
    pytest.param(["check", "--axiom", "linearity-in-capacity", "--n", "0"], N_BELOW_ONE + "0",
                 id="check-n-zero"),
    pytest.param(["check", "--axiom", "comonotonic-affinity", "--n", "-2"], N_BELOW_ONE + "-2",
                 id="check-n-negative"),
    pytest.param(["independence-suite", "--trials", "0"], TRIALS_BELOW_ONE + "0",
                 id="independence-suite-trials"),
    pytest.param(["independence-suite", "--trials", "0", "--paper-witnesses-only"],
                 TRIALS_BELOW_ONE + "0", id="independence-suite-paper-witnesses-only-trials"),
    pytest.param(["random-capacity", "--n", "0", "--kind", "signed"], N_BELOW_ONE + "0",
                 id="random-capacity-n-zero"),
    pytest.param(["random-capacity", "--n", "-1", "--kind", "monotone"], N_BELOW_ONE + "-1",
                 id="random-capacity-n-negative"),
    pytest.param(["oracle", "affine-check", "--capacity", "{game}", "--order", "1,2",
                  "--trials", "0"], TRIALS_BELOW_ONE + "0", id="oracle-affine-check-trials"),
])
def test_a_count_below_one_is_reported_by_the_library(args, expected, tmp_path):
    game = tmp_path / "game.json"
    dump_document(set_function_to_document(GAME2), game)
    code, out, err = run([arg.format(game=game) for arg in args])
    assert_error_exit(code, out, err)
    assert err == expected + "\n"


@pytest.mark.parametrize("build", [
    lambda: SetFunction(np.int64(2), [0.0, 1.5, -2.0, 0.25]),
    lambda: random_signed_capacity(np.int64(3), 4),
], ids=["SetFunction", "random_signed_capacity"])
def test_numpy_integer_ground_set_round_trips_through_a_document(build):
    f = build()
    assert type(f.n) is int
    g = set_function_from_document(json.loads(format_document(set_function_to_document(f))))
    assert g.n == f.n
    assert g.values.tobytes() == f.values.tobytes()


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
