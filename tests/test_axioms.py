"""Axiom checkers, counterexample families and the independence matrix."""

import json
import warnings

import numpy as np
import pytest

import choquet.axioms as axioms_module
from choquet.axioms import (
    AXIOM_COMONOTONIC_ADDITIVITY,
    AXIOM_COMONOTONIC_AFFINITY,
    AXIOM_INTERVAL_SCALE,
    AXIOM_LINEARITY_IN_CAPACITY,
    AXIOM_POSITIVE_HOMOGENEITY,
    AXIOM_ZERO_ON_BASIS,
    Aggregator,
    FAMILY_CHOQUET,
    FAMILY_MULTILINEAR,
    FAMILY_VSTAR_PATCH,
    FAMILY_WEIGHTED_MEAN,
    check_comonotonic_additivity,
    check_comonotonic_affinity,
    check_interval_scale_covariance,
    check_linearity_in_capacity,
    check_positive_homogeneity,
    check_zero_on_basis,
    evaluate_family,
    independence_suite,
    vstar_capacity,
)
from choquet.errors import DimensionMismatch, NonFiniteResult, UnsupportedGroundSet
from choquet.generate import random_signed_capacity
from choquet.integral import choquet
from choquet.setfunction import SignedCapacity, mobius_transform, unanimity_game

def replay_witness(report):
    """Recompute both sides of a falsified report from its recorded inputs."""
    w = report.witness
    ins = w.inputs
    family = ins["family"]
    if report.axiom == AXIOM_COMONOTONIC_ADDITIVITY:
        n = len(ins["x"])
        agg = Aggregator(family, n)
        v = SignedCapacity(n, ins["capacity"])
        x, y = np.array(ins["x"]), np.array(ins["y"])
        return agg.evaluate(v, x + y), agg.evaluate(v, x) + agg.evaluate(v, y)
    if report.axiom == AXIOM_POSITIVE_HOMOGENEITY:
        n = len(ins["x"])
        agg = Aggregator(family, n)
        v = SignedCapacity(n, ins["capacity"])
        x, r = np.array(ins["x"]), ins["r"]
        return agg.evaluate(v, r * x), r * agg.evaluate(v, x)
    if report.axiom == AXIOM_COMONOTONIC_AFFINITY:
        n = len(ins["x"])
        agg = Aggregator(family, n)
        v = SignedCapacity(n, ins["capacity"])
        x, y, lam = np.array(ins["x"]), np.array(ins["x_prime"]), ins["lambda"]
        lhs = agg.evaluate(v, lam * x + (1 - lam) * y)
        return lhs, lam * agg.evaluate(v, x) + (1 - lam) * agg.evaluate(v, y)
    if report.axiom == AXIOM_INTERVAL_SCALE:
        n = len(ins["x"])
        agg = Aggregator(family, n)
        x, r, s = np.array(ins["x"]), ins["r"], ins["s"]
        lhs = agg.basis_evaluate(ins["subset"], r * x + s)
        return lhs, r * agg.basis_evaluate(ins["subset"], x) + s
    if report.axiom == AXIOM_ZERO_ON_BASIS:
        n = len(ins["x"])
        agg = Aggregator(family, n)
        return agg.basis_evaluate(ins["subset"], ins["x"]), 0.0
    if report.axiom == AXIOM_LINEARITY_IN_CAPACITY:
        n = len(ins["x"])
        agg = Aggregator(family, n)
        v = SignedCapacity(n, ins["capacity"])
        m = mobius_transform(v)
        lhs = agg.evaluate(v, ins["x"])
        rhs = sum(
            float(m.coefficients[t]) * agg.basis_evaluate(t, ins["x"])
            for t in range(1, 1 << n)
            if m.coefficients[t] != 0.0
        )
        return lhs, rhs
    raise AssertionError(f"unknown axiom {report.axiom}")


class TestEvaluateFamily:
    def test_weighted_mean_single_term(self):
        agg = Aggregator(FAMILY_WEIGHTED_MEAN, 2)
        assert evaluate_family(agg, unanimity_game(2, [1, 2]), [0, 2]) == 1.0

    def test_multilinear_single_product(self):
        agg = Aggregator(FAMILY_MULTILINEAR, 2)
        assert evaluate_family(agg, unanimity_game(2, [1, 2]), [1, 1]) == 1.0

    def test_vstar_patch_on_vstar(self):
        agg = Aggregator(FAMILY_VSTAR_PATCH, 3)
        assert evaluate_family(agg, vstar_capacity(), [0, 2, 1]) == 1.0

    def test_vstar_patch_mean_does_not_overflow(self):
        agg = Aggregator(FAMILY_VSTAR_PATCH, 3)
        assert evaluate_family(agg, vstar_capacity(), [1e308, 1e308, 1.5e308]) == 1e308

    def test_vstar_patch_halved_mean_equals_the_plain_mean(self):
        agg = Aggregator(FAMILY_VSTAR_PATCH, 3)
        for x in np.random.default_rng(2).uniform(-5, 5, (2000, 3)).tolist():
            assert evaluate_family(agg, vstar_capacity(), x) == min((x[0] + x[1]) / 2.0, x[2])

    @pytest.mark.parametrize(
        "family, n",
        [(FAMILY_CHOQUET, 1), (FAMILY_CHOQUET, 5), (FAMILY_WEIGHTED_MEAN, 4),
         (FAMILY_MULTILINEAR, 4), (FAMILY_VSTAR_PATCH, 3)],
    )
    def test_basis_values_are_the_bound_unanimity_games(self, family, n):
        agg = Aggregator(family, n)
        rng = np.random.default_rng(n)
        X = rng.integers(-300, 301, (50, n)) / 100
        X[rng.random(X.shape) < 0.2] = -0.0
        with np.errstate(over="ignore", invalid="ignore"):
            basis = agg._basis_values(X)
            for t in range(1, 1 << n):
                assert np.array_equal(basis[:, t - 1], agg._bind(unanimity_game(n, t))(X))

    @pytest.mark.parametrize(
        "family, n", [(FAMILY_CHOQUET, n) for n in range(1, 13)] + [(FAMILY_VSTAR_PATCH, 3)]
    )
    def test_one_point_equals_the_batched_route_exactly(self, family, n):
        """One point takes the scalar chain sum: on two-decimal points with
        ties and signed zeros it equals the batched route bit for bit."""
        rng = np.random.default_rng(n)
        points = rng.integers(-300, 301, (60, n)) / 100
        points[rng.random(points.shape) < 0.2] = -0.0
        points[rng.random(points.shape) < 0.2] = 0.0
        agg = Aggregator(family, n)
        v = random_signed_capacity(n, rng)
        batched = agg._bind(v)(points)
        for x, expected in zip(points, batched):
            value = evaluate_family(agg, v, x)
            assert value == expected and np.signbit(value) == np.signbit(expected), (x, value, expected)

    def test_vstar_patch_elsewhere_is_the_integral(self):
        agg = Aggregator(FAMILY_VSTAR_PATCH, 3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = random_signed_capacity(3, rng)
            x = rng.uniform(-5, 5, 3)
            assert evaluate_family(agg, v, x) == choquet(v, x).value

    def test_vstar_patch_needs_three_elements(self):
        with pytest.raises(UnsupportedGroundSet):
            Aggregator(FAMILY_VSTAR_PATCH, 2)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            Aggregator("harmonic", 3)

    @pytest.mark.parametrize("n", [0, -1, 2.5])
    def test_ground_set_below_one_or_not_an_integer(self, n):
        with pytest.raises(UnsupportedGroundSet):
            Aggregator(FAMILY_CHOQUET, n)

    def test_dimension_mismatch(self):
        agg = Aggregator(FAMILY_CHOQUET, 3)
        with pytest.raises(DimensionMismatch):
            evaluate_family(agg, random_signed_capacity(3, 0), [1, 2])

    def test_choquet_family_matches_integral(self):
        agg = Aggregator(FAMILY_CHOQUET, 4)
        rng = np.random.default_rng(1)
        v = random_signed_capacity(4, rng)
        x = rng.uniform(-5, 5, 4)
        assert evaluate_family(agg, v, x) == choquet(v, x).value


class TestChoquetPassesAll:
    def test_all_six_checkers(self):
        rng = np.random.default_rng(2)
        for n in (2, 5, 8):
            agg = Aggregator(FAMILY_CHOQUET, n)
            v = random_signed_capacity(n, rng)
            subset = int(rng.integers(1, 1 << n))
            assert not check_comonotonic_additivity(agg, v, 300, seed=3).falsified
            assert not check_positive_homogeneity(agg, v, 300, seed=3).falsified
            assert not check_comonotonic_affinity(agg, v, 300, seed=3).falsified
            assert not check_interval_scale_covariance(agg, subset, 300, seed=3).falsified
            assert not check_zero_on_basis(agg, subset, 300, seed=3).falsified
        assert not check_linearity_in_capacity(Aggregator(FAMILY_CHOQUET, 3), 100, seed=3).falsified


class TestMultilinearFalsifications:
    def test_additivity_hand_pair(self):
        # f(x + y) on the pair basis game is a product: doubling both
        # coordinates quadruples the value instead of doubling it
        agg = Aggregator(FAMILY_MULTILINEAR, 2)
        v = unanimity_game(2, [1, 2])
        assert evaluate_family(agg, v, [2, 2]) == 4.0
        assert evaluate_family(agg, v, [1, 1]) + evaluate_family(agg, v, [1, 1]) == 2.0
        report = check_comonotonic_additivity(agg, v, 200, seed=0)
        assert report.falsified

    def test_homogeneity_hand_scaling(self):
        agg = Aggregator(FAMILY_MULTILINEAR, 2)
        v = unanimity_game(2, [1, 2])
        assert evaluate_family(agg, v, [2, 2]) == 4.0
        assert 2 * evaluate_family(agg, v, [1, 1]) == 2.0
        assert check_positive_homogeneity(agg, v, 200, seed=0).falsified

    def test_affinity_hand_midpoint(self):
        agg = Aggregator(FAMILY_MULTILINEAR, 2)
        v = unanimity_game(2, [1, 2])
        mid = evaluate_family(agg, v, [1, 1])
        ends = 0.5 * evaluate_family(agg, v, [0, 0]) + 0.5 * evaluate_family(agg, v, [2, 2])
        assert (mid, ends) == (1.0, 2.0)
        assert check_comonotonic_affinity(agg, v, 200, seed=0).falsified

    def test_interval_scale_witness(self):
        agg = Aggregator(FAMILY_MULTILINEAR, 2)
        report = check_interval_scale_covariance(agg, [1, 2], 200, seed=0)
        assert report.falsified
        assert report.witness.lhs == 4.0
        assert report.witness.rhs == 2.0
        assert report.witness.inputs["r"] == 1.0
        assert report.witness.inputs["s"] == 1.0
        assert report.witness.inputs["x"] == [1.0, 1.0]

    def test_zero_on_basis_passes(self):
        agg = Aggregator(FAMILY_MULTILINEAR, 2)
        for s in (0b01, 0b10, 0b11):
            assert not check_zero_on_basis(agg, s, 300, seed=0).falsified

    def test_linearity_passes(self):
        assert not check_linearity_in_capacity(Aggregator(FAMILY_MULTILINEAR, 3), 200, seed=0).falsified


class TestWeightedMeanFalsifications:
    def test_zero_on_basis_witness(self):
        agg = Aggregator(FAMILY_WEIGHTED_MEAN, 2)
        assert agg.basis_evaluate([1, 2], [0, 2]) == 1.0
        report = check_zero_on_basis(agg, [1, 2], 200, seed=0)
        assert report.falsified
        assert abs(report.witness.lhs) > 1e-6

    def test_interval_scale_passes(self):
        agg = Aggregator(FAMILY_WEIGHTED_MEAN, 2)
        for s in (0b01, 0b10, 0b11):
            assert not check_interval_scale_covariance(agg, s, 300, seed=0).falsified

    def test_linearity_passes(self):
        assert not check_linearity_in_capacity(Aggregator(FAMILY_WEIGHTED_MEAN, 3), 200, seed=0).falsified


class TestVstarFalsifications:
    def test_linearity_witness(self):
        agg = Aggregator(FAMILY_VSTAR_PATCH, 3)
        report = check_linearity_in_capacity(agg, 200, seed=0)
        assert report.falsified
        assert report.witness.lhs == 1.0
        assert report.witness.rhs == 0.5
        assert report.witness.inputs["x"] == [0.0, 2.0, 1.0]

    def test_basis_conditions_pass_on_every_unanimity_game(self):
        agg = Aggregator(FAMILY_VSTAR_PATCH, 3)
        for s in range(1, 8):
            assert not check_zero_on_basis(agg, s, 200, seed=0).falsified
            assert not check_interval_scale_covariance(agg, s, 200, seed=0).falsified


class TestWitnessReplay:
    def test_falsified_witnesses_replay(self):
        reports = [
            check_comonotonic_additivity(
                Aggregator(FAMILY_MULTILINEAR, 2), unanimity_game(2, [1, 2]), 100, seed=5
            ),
            check_positive_homogeneity(
                Aggregator(FAMILY_MULTILINEAR, 2), unanimity_game(2, [1, 2]), 100, seed=5
            ),
            check_comonotonic_affinity(
                Aggregator(FAMILY_MULTILINEAR, 2), unanimity_game(2, [1, 2]), 100, seed=5
            ),
            check_interval_scale_covariance(Aggregator(FAMILY_MULTILINEAR, 2), [1, 2], 100, seed=5),
            check_zero_on_basis(Aggregator(FAMILY_WEIGHTED_MEAN, 2), [1, 2], 100, seed=5),
            check_linearity_in_capacity(Aggregator(FAMILY_VSTAR_PATCH, 3), 100, seed=5),
        ]
        for report in reports:
            assert report.falsified, report.axiom
            lhs, rhs = replay_witness(report)
            assert lhs == pytest.approx(report.witness.lhs, abs=1e-12)
            assert rhs == pytest.approx(report.witness.rhs, abs=1e-12)
            assert abs(lhs - rhs) == pytest.approx(report.witness.discrepancy, rel=1e-9)

    def test_satisfied_reports_have_no_witness(self):
        report = check_positive_homogeneity(
            Aggregator(FAMILY_CHOQUET, 3), random_signed_capacity(3, 0), 50, seed=0
        )
        assert report.witness is None
        assert report.samples_run == 50


class TestReportSerialization:
    def test_stable_field_names(self):
        report = check_interval_scale_covariance(Aggregator(FAMILY_MULTILINEAR, 2), [1, 2], 10, seed=0)
        doc = report.to_dict()
        assert set(doc) == {"axiom", "verdict", "witness", "samples_run", "seed", "tolerance"}
        assert set(doc["witness"]) == {"inputs", "lhs", "rhs", "discrepancy"}

    def test_satisfied_witness_is_null(self):
        report = check_zero_on_basis(Aggregator(FAMILY_CHOQUET, 2), [1], 10, seed=0)
        assert report.to_dict()["witness"] is None


class TestIndependenceSuite:
    def test_matrix_matches_expected(self):
        summary = independence_suite(trials=500, seed=0)
        assert summary.matches_expected
        assert summary.deviations() == []

    def test_exactly_one_falsified_cell_per_family(self):
        summary = independence_suite(trials=300, seed=0)
        for family in (FAMILY_WEIGHTED_MEAN, FAMILY_MULTILINEAR, FAMILY_VSTAR_PATCH):
            falsified = [c.condition for c in summary.cells if c.family == family and c.falsified]
            assert len(falsified) == 1

    def test_verdicts_stable_across_seeds(self):
        pattern = lambda s: [c.falsified for c in independence_suite(trials=300, seed=s).cells]
        assert pattern(1) == pattern(2)

    def test_paper_witnesses_only(self):
        summary = independence_suite(trials=300, seed=0, paper_witnesses_only=True)
        assert summary.matches_expected
        wm = summary.cell(FAMILY_WEIGHTED_MEAN, AXIOM_ZERO_ON_BASIS)
        ml = summary.cell(FAMILY_MULTILINEAR, AXIOM_INTERVAL_SCALE)
        vs = summary.cell(FAMILY_VSTAR_PATCH, AXIOM_LINEARITY_IN_CAPACITY)
        assert (wm.witness.lhs, wm.witness.rhs) == (1.0, 0.0)
        assert (ml.witness.lhs, ml.witness.rhs) == (4.0, 2.0)
        assert (vs.witness.lhs, vs.witness.rhs) == (1.0, 0.5)

    def test_serialization_shape(self):
        doc = independence_suite(trials=10, seed=0, paper_witnesses_only=True).to_dict()
        assert doc["matches_expected"] is True
        assert len(doc["cells"]) == 9


def test_trials_must_be_positive():
    with pytest.raises(ValueError):
        check_positive_homogeneity(Aggregator(FAMILY_CHOQUET, 2), random_signed_capacity(2, 0), 0)


def _every_checker(trials, seed):
    agg = Aggregator(FAMILY_CHOQUET, 2)
    v = random_signed_capacity(2, 0)
    return [
        lambda: check_comonotonic_additivity(agg, v, trials, seed),
        lambda: check_positive_homogeneity(agg, v, trials, seed),
        lambda: check_comonotonic_affinity(agg, v, trials, seed),
        lambda: check_interval_scale_covariance(agg, [1, 2], trials, seed),
        lambda: check_zero_on_basis(agg, [1, 2], trials, seed),
        lambda: check_linearity_in_capacity(agg, trials, seed),
        lambda: independence_suite(trials, seed, paper_witnesses_only=True),
    ]


@pytest.mark.parametrize("trials, seed, name", [
    (2.5, 0, "trials"), (np.float64(3.0), 0, "trials"), (True, 0, "trials"), ("3", 0, "trials"),
    (None, 0, "trials"), (3, 2.5, "seed"), (3, "3", "seed"), (3, False, "seed"),
    (3, np.float64(1.0), "seed"),
])
def test_trials_and_seed_must_be_integers(trials, seed, name):
    for run in _every_checker(trials, seed):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            run()


def test_numpy_integer_trials_and_seed_are_reported_as_ints():
    for expected, got in zip(_every_checker(3, 7), _every_checker(np.int64(3), np.uint32(7))):
        doc = got().to_dict()
        assert json.dumps(doc) == json.dumps(expected().to_dict())
        assert type(doc["trials" if "cells" in doc else "samples_run"]) is int
        assert type(doc["seed"]) is int


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
def test_tolerance_must_be_finite_and_nonnegative(tolerance):
    agg = Aggregator(FAMILY_CHOQUET, 2)
    v = random_signed_capacity(2, 0)
    runs = [
        lambda: check_comonotonic_additivity(agg, v, 5, 0, tolerance),
        lambda: check_positive_homogeneity(agg, v, 5, 0, tolerance),
        lambda: check_comonotonic_affinity(agg, v, 5, 0, tolerance),
        lambda: check_interval_scale_covariance(agg, [1, 2], 5, 0, tolerance),
        lambda: check_zero_on_basis(agg, [1, 2], 5, 0, tolerance),
        lambda: check_linearity_in_capacity(agg, 5, 0, tolerance),
    ]
    for run in runs:
        with pytest.raises(ValueError, match="tolerance"):
            run()


def test_zero_tolerance_is_valid():
    report = check_zero_on_basis(Aggregator(FAMILY_CHOQUET, 3), [1, 2], 50, 0, 0.0)
    assert not report.falsified
    assert report.tolerance == 0.0


def test_checker_transforms_its_game_once(monkeypatch):
    calls = []
    transform = axioms_module.mobius_transform
    monkeypatch.setattr(axioms_module, "mobius_transform", lambda f: calls.append(f) or transform(f))
    agg = Aggregator(FAMILY_WEIGHTED_MEAN, 4)
    report = check_comonotonic_additivity(agg, random_signed_capacity(4, 0), 200, seed=0)
    assert report.samples_run == 200
    assert len(calls) == 1


class TestBlockRunner:
    """The checker runner evaluates trials in blocks; within a block the
    first row that is over the tolerance or non-finite decides."""

    def run(self, rows: dict, trials=7, n=2, blocks=None):
        """Stub trials whose sides are 0 except where rows gives them; the
        row count of every block drawn is appended to blocks."""
        blocks = [] if blocks is None else blocks

        def draw(numbers, words):
            blocks.append(len(numbers))
            return {"trial": numbers}

        def sides(bound, inputs):
            pairs = [rows.get(trial, (0.0, 0.0)) for trial in inputs["trial"].tolist()]
            return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])

        agg = Aggregator(FAMILY_CHOQUET, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return axioms_module._run_checker("stub", agg, None, trials, 0, 1e-6, {}, 0, draw, sides)

    @pytest.mark.parametrize("trials, n, expected", [(7, 2, [7]), (40, 13, [8] * 5)])
    def test_blocks_are_the_word_chunks_split_at_the_cap(self, trials, n, expected):
        blocks = []
        self.run({}, trials, n, blocks)
        assert blocks == expected

    def test_falsifying_row_in_the_second_block_of_a_chunk(self):
        report = self.run({11: (1.0, 0.0), 12: (np.inf, np.inf)}, 40, 13)
        assert report.falsified and report.samples_run == 12
        assert report.witness.inputs == {"family": FAMILY_CHOQUET, "trial": 11}
        assert (report.witness.lhs, report.witness.rhs) == (1.0, 0.0)

    def test_falsifying_row_before_an_overflowing_row(self):
        report = self.run({4: (1.0, 0.0), 5: (np.inf, np.inf)})
        assert report.falsified and report.samples_run == 5
        assert report.witness.inputs == {"family": FAMILY_CHOQUET, "trial": 4}
        assert (report.witness.lhs, report.witness.rhs) == (1.0, 0.0)

    @pytest.mark.parametrize("overflow", [(np.inf, np.inf), (1.0, np.nan), (-np.inf, 0.0)])
    def test_overflowing_row_before_a_falsifying_row(self, overflow):
        with pytest.raises(NonFiniteResult) as info:
            self.run({4: overflow, 5: (1.0, 0.0)})
        assert info.value.operation == "choquet"

    def test_rows_within_tolerance_satisfy(self):
        report = self.run({4: (1.0, 1.0 + 1e-7)})
        assert not report.falsified and report.samples_run == 7
