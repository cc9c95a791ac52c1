"""Integral evaluation: permutation route, Mobius route, comonotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choquet.errors import DimensionMismatch, NotAGame
from choquet.generate import random_capacity, random_set_function, random_signed_capacity
from choquet.integral import (
    _chain_sums,
    choquet,
    choquet_mobius,
    common_sort_permutation,
    comonotonic,
    lovasz_extension,
    sort_permutation,
)
from choquet.oracle import choquet_all_permutations
from choquet.setfunction import (
    MobiusRepresentation,
    SetFunction,
    SignedCapacity,
    mobius_transform,
    unanimity_game,
)

from conftest import assert_close


class TestSortPermutation:
    def test_two_distinct(self):
        perm = sort_permutation([5, 1])
        assert perm.order == (2, 1)
        assert perm.upper_chain == (0b11, 0b01)

    def test_tie_rule_picks_identity(self):
        assert sort_permutation([3, 3, 3]).order == (1, 2, 3)

    def test_three_values(self):
        perm = sort_permutation([4, 0, 2])
        assert perm.order == (2, 3, 1)
        assert perm.upper_chain == (0b111, 0b101, 0b001)

    def test_chain_is_strictly_nested(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-5, 5, 6)
            perm = sort_permutation(x)
            chain = perm.upper_chain
            assert chain[0] == 0b111111
            for a, b in zip(chain, chain[1:]):
                assert b & a == b and (a ^ b).bit_count() == 1


class TestChoquet:
    def test_unanimity_is_min_over_t(self):
        v = unanimity_game(3, [1, 3])
        assert choquet(v, [4, 0, 2]).value == 2.0

    def test_constant_vector_telescopes_to_full_set(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = random_signed_capacity(4, rng)
            c = float(rng.uniform(-5, 5))
            assert_close(choquet(v, [c] * 4).value, c * v.values[-1])

    def test_hand_example(self):
        v = SignedCapacity(2, [0, 3, -1, 2])
        result = choquet(v, [5, 1])
        assert result.value == 14.0
        assert result.permutation_used.order == (2, 1)

    def test_requires_game(self):
        with pytest.raises(NotAGame):
            choquet(SetFunction(2, [1, 3, -1, 2]), [0, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            choquet(SignedCapacity(2, [0, 3, -1, 2]), [1, 2, 3])


class TestChoquetMobius:
    def test_single_min_term(self):
        coeffs = np.zeros(8)
        coeffs[0b101] = 1.0
        assert choquet_mobius(MobiusRepresentation(3, coeffs), [4, 0, 2]).value == 2.0

    def test_zero_coefficients(self):
        assert choquet_mobius(MobiusRepresentation(2, np.zeros(4)), [7, -3]).value == 0.0

    def test_matches_permutation_route_example(self):
        m = MobiusRepresentation(2, [0, 3, -1, 0])
        result = choquet_mobius(m, [5, 1])
        assert result.value == 14.0
        assert result.permutation_used is None

    def test_float_coercion(self):
        m = MobiusRepresentation(2, [0, 3, -1, 0])
        assert float(choquet_mobius(m, [5, 1])) == 14.0


class TestLovaszExtension:
    def test_constant_function(self):
        f = SetFunction(2, [7, 7, 7, 7])
        for x in ([0, 0], [3, -9], [0.5, 0.5]):
            assert lovasz_extension(f, x).value == 7.0

    def test_reduces_to_choquet_on_games(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            v = random_signed_capacity(5, rng)
            x = rng.uniform(-5, 5, 5)
            assert lovasz_extension(v, x).value == choquet(v, x).value

    def test_vertex_example(self):
        f = SetFunction(2, [1, 3, -1, 2])
        assert lovasz_extension(f, [0, 1]).value == -1.0
        assert f.value([2]) == -1.0

    def test_matches_mobius_route_with_offset(self):
        # the min-form with the empty-set coefficient kept as constant offset
        rng = np.random.default_rng(3)
        for _ in range(50):
            f = random_set_function(5, rng)
            x = rng.uniform(-5, 5, 5)
            assert_close(
                lovasz_extension(f, x).value,
                choquet_mobius(mobius_transform(f), x).value,
            )


class TestComonotonic:
    def test_both_increasing(self):
        assert comonotonic([1, 2, 3], [10, 10, 50])

    def test_opposite_order(self):
        assert not comonotonic([1, 2], [5, 3])

    def test_constant_with_anything(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(-5, 5, 4)
        assert comonotonic([2.5] * 4, y)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            comonotonic([1, 2], [1, 2, 3])

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.lists(st.integers(-3, 3), min_size=1, max_size=5),
        data=st.data(),
    )
    def test_equivalent_to_common_permutation(self, x, data):
        y = data.draw(st.lists(st.integers(-3, 3), min_size=len(x), max_size=len(x)))
        has_common = common_sort_permutation(x, y) is not None
        assert comonotonic(x, y) == has_common

    def test_common_permutation_sorts_both(self):
        x, y = [1, 2, 2, 0], [5, 5, 7, 1]
        perm = common_sort_permutation(x, y)
        assert perm is not None
        xs = [x[i - 1] for i in perm.order]
        ys = [y[i - 1] for i in perm.order]
        assert xs == sorted(xs) and ys == sorted(ys)


def test_formula_equivalence_random():
    rng = np.random.default_rng(5)
    for n in range(1, 11):
        for _ in range(100):
            v = random_signed_capacity(n, rng)
            x = rng.uniform(-5, 5, n)
            a = choquet(v, x).value
            b = choquet_mobius(mobius_transform(v), x).value
            assert_close(a, b)


def test_vertex_interpolation():
    rng = np.random.default_rng(6)
    for n in range(1, 11):
        f = random_set_function(n, rng)
        for mask in range(1 << n):
            vertex = [(mask >> i) & 1 for i in range(n)]
            assert abs(lovasz_extension(f, vertex).value - f.values[mask]) <= 1e-12


def test_tie_independence_exhaustive():
    rng = np.random.default_rng(7)
    pool = [-1.0, 0.0, 1.0, 2.0]
    for n in range(2, 7):
        for _ in range(30):
            v = random_signed_capacity(n, rng)
            x = rng.choice(pool, n)  # draws collide, producing ties
            values = choquet_all_permutations(v, x)
            assert len(values) == 1
            assert_close(values.pop(), choquet(v, x).value)


def test_positive_homogeneity_sampled():
    rng = np.random.default_rng(8)
    for r in (0.5, 2.0, 7.3):
        for _ in range(50):
            v = random_signed_capacity(4, rng)
            x = rng.uniform(-5, 5, 4)
            assert_close(choquet(v, r * x).value, r * choquet(v, x).value)


def _comonotonic_pair(rng, n):
    base = rng.uniform(-5, 5, n)
    slopes = rng.uniform(0, 2, 2)
    shifts = rng.uniform(-1, 1, 2)
    return slopes[0] * base + shifts[0], slopes[1] * base + shifts[1]


def test_comonotonic_additivity():
    rng = np.random.default_rng(9)
    for _ in range(200):
        v = random_signed_capacity(5, rng)
        x, y = _comonotonic_pair(rng, 5)
        assert comonotonic(x, y)
        assert_close(choquet(v, x + y).value, choquet(v, x).value + choquet(v, y).value)


def test_affinity_on_cones():
    rng = np.random.default_rng(10)
    for _ in range(200):
        v = random_signed_capacity(5, rng)
        x, y = _comonotonic_pair(rng, 5)
        lam = rng.uniform(0, 1)
        lhs = choquet(v, lam * x + (1 - lam) * y).value
        rhs = lam * choquet(v, x).value + (1 - lam) * choquet(v, y).value
        assert_close(lhs, rhs)


def test_monotone_capacity_is_coordinatewise_nondecreasing():
    rng = np.random.default_rng(11)
    for _ in range(20):
        mu = random_capacity(5, rng)
        for _ in range(25):
            x = rng.uniform(-5, 5, 5)
            i = rng.integers(5)
            bumped = x.copy()
            bumped[i] += rng.uniform(0, 5)
            assert choquet(mu, bumped).value >= choquet(mu, x).value - 1e-12


def test_unanimity_evaluation_is_min():
    rng = np.random.default_rng(12)
    for n in range(1, 7):
        for t_mask in range(1, 1 << n):
            v = unanimity_game(n, t_mask)
            members = [i + 1 for i in range(n) if (t_mask >> i) & 1]
            for _ in range(10):
                x = rng.uniform(-5, 5, n)
                expected = min(x[i - 1] for i in members)
                assert choquet(v, x).value == expected


@pytest.mark.parametrize("n", range(1, 13))
def test_chain_sums_equal_the_scalar_route_exactly(n):
    """Two-decimal points (ties at every n), signed zeros, one game for all
    rows and one game per row: every entry equals choquet bit for bit."""
    rng = np.random.default_rng(n)
    points = rng.integers(-300, 301, (60, n)) / 100
    points[rng.random(points.shape) < 0.2] = -0.0
    points[rng.random(points.shape) < 0.2] = 0.0
    v = random_signed_capacity(n, rng)
    games = [random_signed_capacity(n, rng) for _ in points]
    shared = _chain_sums(v.values, points)
    per_row = _chain_sums(np.array([g.values for g in games]), points)
    for x, got, game, got_own in zip(points, shared, games, per_row):
        for value, expected in ((got, choquet(v, x).value), (got_own, choquet(game, x).value)):
            assert value == expected and np.signbit(value) == np.signbit(expected), (x, value, expected)


def _chain_sums_by_columns(values, X):
    """The column-by-column form _chain_sums used to take: a total that
    starts from +0.0 and adds one column of terms per numpy call."""
    k, n = X.shape
    order = np.argsort(X, axis=1, kind="stable")
    chain = np.zeros((k, n + 1), dtype=np.int64)
    chain[:, :n] = np.cumsum((1 << order)[:, ::-1], axis=1)[:, ::-1]
    f = values[chain] if values.ndim == 1 else np.take_along_axis(values, chain, axis=1)
    terms = (f[:, :-1] - f[:, 1:]) * np.take_along_axis(X, order, axis=1)
    total = np.zeros(k)
    for column in terms.T:
        total += column
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 13, 16])
@pytest.mark.parametrize("k", [1, 5, 256])
def test_chain_sums_equal_the_column_by_column_sum_bit_for_bit(n, k):
    """Ties, signed zeros and rows of -0.0 only (every term -0.0 at a game
    whose chain differences are all positive), at one game and at one game
    per row.  One game per row is left out at n = 16 with 256 rows (2**24
    values, 134 MB); a checker block holds at most 2**16."""
    rng = np.random.default_rng([n, k])
    X = rng.integers(-300, 301, (k, n)) / 100
    X[rng.random(X.shape) < 0.2] = -0.0
    X[rng.random(X.shape) < 0.2] = 0.0
    X[::2] = -0.0
    increasing = np.arange(1 << n, dtype=float)  # every chain difference is positive
    games = [random_signed_capacity(n, rng).values, increasing]
    if k << n <= 1 << 21:
        games += [rng.uniform(-1.0, 1.0, (k, 1 << n)), np.broadcast_to(increasing, (k, 1 << n))]
    for values in games:
        got, expected = _chain_sums(values, X), _chain_sums_by_columns(values, X)
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert not np.signbit(_chain_sums(increasing, X)[::2]).any()


@pytest.mark.parametrize("monotone", [False, True])
def test_mobius_route_matches_the_permutation_route_at_n_20(monotone):
    v = random_capacity(20, 20) if monotone else random_signed_capacity(20, 20)
    m = mobius_transform(v)
    rng = np.random.default_rng(20)
    for _ in range(3):
        x = rng.integers(-300, 301, 20) / 100
        assert_close(choquet_mobius(m, x).value, choquet(v, x).value, rel=1e-9)


def _chain_sum_reading_twice(values, coords, perm):
    """The scalar chain sum as it read most values twice: each upper-set
    value as hi at step i and again as lo at step i + 1."""
    order, chain = perm.order, perm.upper_chain
    n = len(order)
    empty = float(values[0])
    total = 0.0
    for i in range(n):
        hi = float(values[chain[i]])
        lo = float(values[chain[i + 1]]) if i + 1 < n else empty
        total += (hi - lo) * coords[order[i] - 1]
    return total


@pytest.mark.parametrize("n", range(1, 21))
def test_scalar_chain_sum_equals_the_two_read_loop_bit_for_bit(n):
    """choquet and lovasz_extension on two-decimal points (ties at every n),
    points with signed zeros and points of +0.0 and -0.0 only."""
    rng = np.random.default_rng([n, 302])
    points = rng.integers(-300, 301, (40, n)) / 100
    points[rng.random(points.shape) < 0.2] = -0.0
    points[rng.random(points.shape) < 0.2] = 0.0
    zeros = np.where(rng.random((20, n)) < 0.5, -0.0, 0.0)
    zeros[0], zeros[1] = 0.0, -0.0
    v = random_signed_capacity(n, rng)
    f = random_set_function(n, rng)
    for x in np.concatenate([points, zeros]).tolist():
        perm = sort_permutation(x)
        got = (choquet(v, x).value, lovasz_extension(f, x).value)
        expected = (_chain_sum_reading_twice(v.values, x, perm),
                    float(f.values[0]) + _chain_sum_reading_twice(f.values, x, perm))
        assert [g.hex() for g in got] == [e.hex() for e in expected], x
