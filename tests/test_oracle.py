"""Brute-force oracles and their agreement with the fast paths."""

import sys
from fractions import Fraction
from functools import partial
from itertools import accumulate, permutations, product

import numpy as np
import pytest

from choquet import axioms, oracle
from choquet.axioms import (
    AXIOM_COMONOTONIC_ADDITIVITY,
    AXIOM_COMONOTONIC_AFFINITY,
    AXIOM_INTERVAL_SCALE,
    AXIOM_LINEARITY_IN_CAPACITY,
    AXIOM_POSITIVE_HOMOGENEITY,
    AXIOM_ZERO_ON_BASIS,
    EXPECTED_FALSIFIED,
    FALSIFY_TOLERANCE,
    Aggregator,
    independence_suite,
    vstar_capacity,
)
from choquet.errors import GroundSetTooLarge, NonFiniteResult, NotAGame
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

    def test_sums_at_the_edge_of_the_float_range(self):
        # The sums are max + x1 * 2**970: a quarter and a half of the gap
        # from the largest float to 2**1024, rounded down and up.
        v = SignedCapacity(2, [0.0, 0.0, sys.float_info.max / 2, 2.0**1023])
        assert choquet_all_permutations(v, [0.5, 2.0]) == {sys.float_info.max}
        with pytest.raises(NonFiniteResult, match="choquet_all_permutations"):
            choquet_all_permutations(v, [1.0, 2.0])


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


@pytest.mark.parametrize("seed, pool, sizes, draws", [
    (3, [-2.0, -1.0, 0.0, 1.0], range(2, 6), 60),
    (7, [-1.0, 0.0, 1.0, 2.0], range(2, 7), 30),
])
def test_tie_independence(seed, pool, sizes, draws):
    rng = np.random.default_rng(seed)
    for n in sizes:
        for _ in range(draws):
            v = random_signed_capacity(n, rng)
            x = rng.choice(pool, n)  # draws collide, producing ties
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
    """Both sides of a witness of one of the conditions, every family value
    exact at the float points its checker evaluated."""
    x, subset = np.array(inputs["x"]), inputs.get("subset")
    agg = Aggregator(inputs["family"], len(x))

    def basis(t, point):
        return evaluate_family_exact(agg, unanimity_game(agg.n, t), point)

    def family(point):
        return evaluate_family_exact(agg, SignedCapacity(agg.n, inputs["capacity"]), point)

    if condition == AXIOM_COMONOTONIC_ADDITIVITY:
        y = np.array(inputs["y"])
        return family(x + y), family(x) + family(y)
    if condition == AXIOM_POSITIVE_HOMOGENEITY:
        r = inputs["r"]
        return family(r * x), Fraction(r) * family(x)
    if condition == AXIOM_COMONOTONIC_AFFINITY:
        y, lam = np.array(inputs["x_prime"]), inputs["lambda"]
        rhs = Fraction(lam) * family(x) + (1 - Fraction(lam)) * family(y)
        return family(lam * x + (1.0 - lam) * y), rhs
    if condition == AXIOM_ZERO_ON_BASIS:
        return basis(subset, x), Fraction(0)
    if condition == AXIOM_INTERVAL_SCALE:
        r, s = inputs["r"], inputs["s"]
        return basis(subset, r * x + s), Fraction(r) * basis(subset, x) + Fraction(s)
    assert condition == AXIOM_LINEARITY_IN_CAPACITY
    m = oracle._signed_subset_sums([Fraction(c) for c in inputs["capacity"]])
    return family(x), sum(m[t] * basis(t, x) for t in range(1, 1 << agg.n))


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
        """The suite's witnesses and those of the checker called once per
        nonempty subset, where the condition takes one."""
        summary = independence_suite(1000, seed)
        for cell in summary.cells:
            if not cell.falsified:
                continue
            agg = Aggregator(cell.family, axioms._FAMILY_PARTS[cell.family].suite_n)
            check = axioms.CHECKERS[cell.condition]
            subjects = [[m] for m in range(1, 1 << agg.n)] if cell.condition in axioms.SUBSET_AXIOMS else [[]]
            reports = [check(agg, *subject, 1000, seed) for subject in subjects]
            for witness in [cell.witness] + [r.witness for r in reports if r.falsified]:
                lhs, rhs = exact_sides(cell.condition, witness.inputs)
                assert abs(lhs - rhs) > FALSIFY_TOLERANCE, (cell.family, witness)

    def test_golden_witnesses_at_the_falsify_tolerance_are_exact(self):
        """Every falsified report of the golden call table at tolerance 1e-6
        within the exact evaluator's bound."""
        from test_golden_reports import GROUPS, calls, report

        reports = [report(*call) for group in GROUPS if group[1] <= oracle.MAX_N_EXACT_FAMILY
                   for _, call in calls(*group) if call[-1] == FALSIFY_TOLERANCE]
        falsified = [r for r in reports if r.falsified]
        for r in falsified:
            lhs, rhs = exact_sides(r.axiom, r.witness.inputs)
            assert abs(lhs - rhs) > FALSIFY_TOLERANCE, r.witness
        assert len(falsified) == 225  # as the fixture is recorded

    def test_vstar_is_overridden_exactly(self):
        agg = Aggregator(FAMILY_VSTAR_PATCH, 3)
        vstar = vstar_capacity()
        assert evaluate_family_exact(agg, vstar, [1e308, 1e308, 1.5e308]) == Fraction(1e308)
        assert evaluate_family_exact(agg, vstar, [0.1, 0.2, 5.0]) == (Fraction(0.1) + Fraction(0.2)) / 2

    def test_bound(self):
        with pytest.raises(GroundSetTooLarge):
            evaluate_family_exact(Aggregator("choquet", 9), SignedCapacity(9, np.zeros(512)),
                                  [0] * 9)


# The independence matrix's six pass cells, proved exactly at the suite's
# ground sets by Alon's Combinatorial Nullstellensatz (1999), Lemma 2.1: a
# polynomial of degree at most t_k in its k-th variable that vanishes on a
# product of sets of t_k + 1 points each is zero.  The degree bounds, in
# each variable on its own:
# - weighted-mean, sum over T of m_v(T) times the mean of x over T: 1 in
#   each coordinate and, m_v being linear in v, 1 in each value of v;
# - multilinear, sum over T of m_v(T) times the product of x over T: 1 in
#   each coordinate and in each value of v;
# - vstar-patch at a unanimity game, which is never vstar: the integral,
#   linear on each chain cone in the cone's increments y (_running_sums).
#   At vstar it is not polynomial in v, so a grid of game values would
#   "prove" its linearity cell by missing vstar; that cell keeps its exact
#   witness (test_paper_witnesses_are_exact).
# So on each region below lhs - rhs has degree at most 1 in each variable:
# x (or y), r and s for interval-scale, since r x + s only scales and
# shifts a point of a region within it; the coordinates (or y) left free by
# the zeroed one for zero-on-basis; the game values and x for linearity.
# Two points per variable inside the region prove the cell on all of it,
# and a failing grid point is an exact counterexample.
_TWO = (1.0, 2.0)
_UNIT = (0.25, 0.5)  # increments of a point of [0, 1]**3 that starts at 0
_SCALES = (_TWO, (0.0, 1.0))  # r > 0 and s

PASS_CELLS = [(family, condition) for family in axioms.INDEPENDENCE_FAMILIES
              for condition in axioms.INDEPENDENCE_CONDITIONS
              if EXPECTED_FALSIFIED[family] != condition]


def _running_sums(order, y):
    """The point whose coordinates along order (0-based elements) are the
    running sums of y: the chain cone of order, by its increments."""
    x = [0.0] * len(order)
    for element, level in zip(order, accumulate(y)):
        x[element] = level
    return x


def _regions(family, condition, n, subset):
    """Regions that cover the condition's domain at the basis game of subset,
    each (point of its parameters, the grid of each parameter): chain cones
    for vstar-patch, coordinates for the polynomial families."""
    cones = family == FAMILY_VSTAR_PATCH
    if condition == AXIOM_INTERVAL_SCALE:  # all of R**n
        if cones:
            return [(partial(_running_sums, order), [_TWO] * n) for order in permutations(range(n))]
        return [(list, [_TWO] * n)]
    regions = []  # zero-on-basis: [0, 1]**n with an element e of the subset at 0
    for e in (i for i in range(n) if subset >> i & 1):
        if cones:
            others = [i for i in range(n) if i != e]
            regions += [(partial(_running_sums, (e, *order)), [(0.0,)] + [_UNIT] * (n - 1))
                        for order in permutations(others)]
        else:
            regions.append((list, [(0.0,) if i == e else _UNIT for i in range(n)]))
    return regions


def _grid_inputs(family, condition):
    """exact_sides inputs at every point of the cell's grid, at the suite's n."""
    n = axioms._FAMILY_PARTS[family].suite_n
    if condition == AXIOM_LINEARITY_IN_CAPACITY:
        for point in product(_TWO, repeat=n + (1 << n) - 1):
            yield {"family": family, "x": list(point[:n]), "capacity": [0.0, *point[n:]]}
        return
    scales = _SCALES if condition == AXIOM_INTERVAL_SCALE else ()
    for subset in range(1, 1 << n):
        for to_point, grids in _regions(family, condition, n, subset):
            for point in product(*grids, *scales):
                inputs = {"family": family, "subset": subset, "x": to_point(point[:n])}
                yield inputs | dict(zip("rs", point[n:]))


@pytest.mark.parametrize("family, condition", PASS_CELLS)
def test_the_pass_cells_hold_exactly_on_a_proving_grid(family, condition):
    failures = [(inputs, sides) for inputs in _grid_inputs(family, condition)
                for sides in [exact_sides(condition, inputs)] if sides[0] != sides[1]]
    assert failures == []


@pytest.mark.parametrize("family", [FAMILY_WEIGHTED_MEAN, FAMILY_MULTILINEAR])
def test_the_grid_of_a_polynomial_family_finds_its_falsified_cell(family):
    # The same regions and grids hold an exact counterexample wherever the
    # condition fails, so they do not pass a cell by missing its failures.
    condition = EXPECTED_FALSIFIED[family]
    assert any(lhs != rhs for lhs, rhs in
               (exact_sides(condition, inputs) for inputs in _grid_inputs(family, condition)))
