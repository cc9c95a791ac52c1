"""Overflow, flag validation and fuzzing: every input ends in a finite value
or a ChoquetError with its documented exit code, never a traceback."""

import io as text_io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from choquet.cli import main
from choquet.errors import ChoquetError, NonFiniteResult
from choquet.integral import choquet, choquet_mobius, lovasz_extension
from choquet.io import dump_document, mobius_from_document, set_function_from_document
from choquet.setfunction import (
    MobiusRepresentation,
    SetFunction,
    SignedCapacity,
    mobius_transform,
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
