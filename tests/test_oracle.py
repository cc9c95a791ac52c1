"""Brute-force oracles and their agreement with the fast paths."""

from fractions import Fraction

import numpy as np
import pytest

from choquet import axioms, oracle
from choquet.axioms import (
    AXIOM_INTERVAL_SCALE,
    AXIOM_LINEARITY_IN_CAPACITY,
    AXIOM_ZERO_ON_BASIS,
    EXPECTED_FALSIFIED,
    FALSIFY_TOLERANCE,
    Aggregator,
    independence_suite,
    vstar_capacity,
)
from choquet.errors import GroundSetTooLarge, NotAGame
from choquet.generate import random_set_function, random_signed_capacity
from choquet.integral import EvaluationResult, choquet
from choquet.names import FAMILY_MULTILINEAR, FAMILY_VSTAR_PATCH, FAMILY_WEIGHTED_MEAN
from choquet.oracle import (
    choquet_all_permutations,
    evaluate_family_exact,
    lovasz_affine_check,
    mobius_naive,
)
from choquet.setfunction import (
    SetFunction,
    SignedCapacity,
    mobius_transform,
    unanimity_game,
)

from conftest import assert_close, family_sizes


class TestMobiusNaive:
    def test_unanimity_duality(self):
        coeffs = mobius_naive(unanimity_game(3, [1, 3])).coefficients
        expected = np.zeros(8)
        expected[0b101] = 1.0
        assert np.array_equal(coeffs, expected)

    def test_hand_computation(self):
        m = mobius_naive(SetFunction(2, [0, 3, -1, 2]))
        assert m.coefficients.tolist() == [0.0, 3.0, -1.0, 0.0]

    def test_zero_function(self):
        m = mobius_naive(SetFunction(3, np.zeros(8)))
        assert not m.coefficients.any()

    def test_bound(self):
        with pytest.raises(GroundSetTooLarge):
            mobius_naive(SetFunction(13, np.zeros(1 << 13)))


class TestChoquetAllPermutations:
    def test_constant_vector_all_permutations_valid(self):
        rng = np.random.default_rng(0)
        v = random_signed_capacity(2, rng)
        values = choquet_all_permutations(v, [3, 3])
        assert values == {3.0 * v.values[-1]}

    def test_hand_sum(self):
        v = SignedCapacity(2, [0, 3, -1, 2])
        assert choquet_all_permutations(v, [5, 1]) == {14.0}

    def test_tied_orders_agree(self):
        assert choquet_all_permutations(unanimity_game(3, [1, 2]), [1, 1, 2]) == {1.0}

    def test_bound(self):
        with pytest.raises(GroundSetTooLarge):
            choquet_all_permutations(SignedCapacity(7, np.zeros(128)), [0] * 7)

    def test_not_a_game(self):
        with pytest.raises(NotAGame):
            choquet_all_permutations(SetFunction(2, [1.0, 0.0, 0.0, 0.0]), [1.0, 2.0])


class TestLovaszAffineCheck:
    def test_basis_game_cone(self):
        assert lovasz_affine_check(unanimity_game(2, [1]), [2, 1])

    def test_constant_function_every_cone(self):
        f = SetFunction(2, [7, 7, 7, 7])
        assert lovasz_affine_check(f, [1, 2])
        assert lovasz_affine_check(f, [2, 1])

    def test_invalid_permutation(self):
        with pytest.raises(ValueError):
            lovasz_affine_check(SetFunction(2, [0, 1, 2, 3]), [1, 1])

    def test_bound(self):
        with pytest.raises(GroundSetTooLarge):
            lovasz_affine_check(SetFunction(9, np.zeros(512)), list(range(1, 10)))

    def test_a_non_affine_extension_is_reported(self, monkeypatch):
        squares = lambda f, x: EvaluationResult(float(np.dot(x, x)), None)
        monkeypatch.setattr(oracle, "lovasz_extension", squares)
        assert not lovasz_affine_check(unanimity_game(2, [1]), [1, 2])


def test_naive_equals_fast_exactly_on_integer_grids():
    rng = np.random.default_rng(1)
    for n in range(1, 5):
        for _ in range(100):
            f = SetFunction(n, rng.integers(-3, 4, 1 << n).astype(float))
            assert np.array_equal(
                mobius_naive(f).coefficients, mobius_transform(f).coefficients
            )


def test_naive_close_to_fast_on_reals():
    rng = np.random.default_rng(2)
    for n in range(1, 9):
        f = random_set_function(n, rng)
        naive = mobius_naive(f).coefficients
        fast = mobius_transform(f).coefficients
        for a, b in zip(naive, fast):
            assert_close(a, b, rel=1e-12, abs_tol=1e-12)


def test_singleton_sweep_with_ties():
    rng = np.random.default_rng(3)
    pool = [-2.0, -1.0, 0.0, 1.0]
    for n in range(2, 6):
        for _ in range(60):
            v = random_signed_capacity(n, rng)
            x = rng.choice(pool, n)
            values = choquet_all_permutations(v, x)
            assert len(values) == 1
            assert_close(values.pop(), choquet(v, x).value)


def test_affine_on_every_cone():
    from itertools import permutations

    rng = np.random.default_rng(4)
    for _ in range(5):
        f = random_set_function(3, rng)
        for order in permutations([1, 2, 3]):
            assert lovasz_affine_check(f, order, trials=40, seed=7)


def test_affine_on_sampled_cones_n6():
    rng = np.random.default_rng(5)
    for trial in range(4):
        f = random_set_function(6, rng)
        order = list(rng.permutation(6) + 1)
        assert lovasz_affine_check(f, order, trials=100, seed=trial)


def exact_sides(condition, inputs):
    """Both sides of a witness of one of the suite's conditions, every family
    value exact at the float points its checker evaluated."""
    x, subset = inputs["x"], inputs.get("subset")
    agg = Aggregator(inputs["family"], len(x))

    def basis(t, point):
        return evaluate_family_exact(agg, unanimity_game(agg.n, t), point)

    if condition == AXIOM_ZERO_ON_BASIS:
        return basis(subset, x), Fraction(0)
    if condition == AXIOM_INTERVAL_SCALE:
        r, s = inputs["r"], inputs["s"]
        lhs = basis(subset, (r * np.array(x) + s).tolist())
        return lhs, Fraction(r) * basis(subset, x) + Fraction(s)
    assert condition == AXIOM_LINEARITY_IN_CAPACITY
    v = SignedCapacity(agg.n, inputs["capacity"])
    m = oracle._signed_subset_sums([Fraction(c) for c in inputs["capacity"]])
    return evaluate_family_exact(agg, v, x), sum(m[t] * basis(t, x) for t in range(1, 1 << agg.n))


class TestEvaluateFamilyExact:
    def test_every_family_has_an_exact_evaluator(self):
        assert list(oracle.EXACT_EVALUATORS) == list(axioms._FAMILY_PARTS)

    @pytest.mark.parametrize("family, n", family_sizes(range(1, 7)))
    def test_batched_values_agree_with_the_exact_ones(self, family, n):
        rng = np.random.default_rng(n)
        agg = Aggregator(family, n)
        games = [random_signed_capacity(n, rng) for _ in range(3)]
        for v in games + ([vstar_capacity()] if n == 3 else []):
            points = rng.uniform(-5.0, 5.0, (8, n))
            for x, value in zip(points, agg._bind(v)(points)):
                assert_close(value, float(evaluate_family_exact(agg, v, x)), rel=1e-12)

    def test_paper_witnesses_are_exact(self):
        summary = independence_suite(1, 0, paper_witnesses_only=True)
        paper = {FAMILY_WEIGHTED_MEAN: (1, 0), FAMILY_MULTILINEAR: (4, 2),
                 FAMILY_VSTAR_PATCH: (1, Fraction(1, 2))}
        for family, condition in EXPECTED_FALSIFIED.items():
            witness = summary.cell(family, condition).witness
            assert exact_sides(condition, witness.inputs) == paper[family]
            assert (witness.lhs, witness.rhs) == paper[family]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_falsified_witnesses_are_exact_counterexamples(self, seed):
        """The suite's witnesses and those of its checker calls."""
        summary = independence_suite(1000, seed)
        for cell in summary.cells:
            if not cell.falsified:
                continue
            agg = Aggregator(cell.family, axioms._FAMILY_PARTS[cell.family].suite_n)
            reports = axioms._run_condition(agg, cell.condition, 1000, seed)
            for witness in [cell.witness] + [r.witness for r in reports if r.falsified]:
                lhs, rhs = exact_sides(cell.condition, witness.inputs)
                assert abs(lhs - rhs) > FALSIFY_TOLERANCE, (cell.family, witness)

    def test_vstar_is_overridden_exactly(self):
        agg = Aggregator(FAMILY_VSTAR_PATCH, 3)
        vstar = vstar_capacity()
        assert evaluate_family_exact(agg, vstar, [1e308, 1e308, 1.5e308]) == Fraction(1e308)
        assert evaluate_family_exact(agg, vstar, [0.1, 0.2, 5.0]) == (Fraction(0.1) + Fraction(0.2)) / 2

    def test_bound(self):
        with pytest.raises(GroundSetTooLarge):
            evaluate_family_exact(Aggregator("choquet", 9), SignedCapacity(9, np.zeros(512)),
                                  [0] * 9)
