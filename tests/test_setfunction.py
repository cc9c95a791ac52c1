"""Set-function representation, validation and transforms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choquet.errors import EmptyT, NotAGame, NotMonotone
from choquet.generate import random_capacity, random_set_function, random_signed_capacity
from choquet.oracle import mobius_naive
from choquet.setfunction import (
    Capacity,
    MobiusRepresentation,
    SetFunction,
    SignedCapacity,
    basis_decomposition,
    elements_from_mask,
    full_mask,
    mask_from_elements,
    mobius_transform,
    unanimity_game,
    validate_capacity,
    validate_signed_capacity,
    zeta_transform,
    _subset_statistic,
)

from conftest import assert_close


class TestMaskHelpers:
    def test_mask_of_1_3(self):
        assert mask_from_elements([1, 3]) == 0b101

    def test_elements_round_trip(self):
        for mask in range(1 << 5):
            assert mask_from_elements(elements_from_mask(mask), 5) == mask

    def test_full_mask(self):
        assert full_mask(3) == 0b111

    def test_out_of_range_element(self):
        with pytest.raises(ValueError):
            mask_from_elements([0])
        with pytest.raises(ValueError):
            mask_from_elements([4], n=3)


class TestSetFunction:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            SetFunction(2, [0.0, 1.0, 2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            SetFunction(1, [0.0, float("nan")])

    def test_ground_set_bounds(self):
        with pytest.raises(ValueError):
            SetFunction(0, [1.0])
        with pytest.raises(ValueError):
            SetFunction(21, np.zeros(1 << 21))

    def test_values_immutable(self):
        f = SetFunction(2, [0, 1, 2, 3])
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_value_lookup_by_mask_and_elements(self):
        f = SetFunction(2, [0, 3, -1, 2])
        assert f.value(0b10) == -1.0
        assert f.value([1, 2]) == 2.0
        assert f[1] == 3.0

    def test_linear_combination(self):
        a = unanimity_game(3, [1])
        b = unanimity_game(3, [2, 3])
        combo = 2 * a - 3 * b
        assert isinstance(combo, SetFunction)
        assert combo.value([1]) == 2.0
        assert combo.value([2, 3]) == -3.0
        assert combo.value([1, 2, 3]) == -1.0


class TestValidateSignedCapacity:
    def test_accepts_zero_on_empty(self):
        v = validate_signed_capacity(SetFunction(1, [0, 5]))
        assert isinstance(v, SignedCapacity)

    def test_rejects_nonzero_empty(self):
        with pytest.raises(NotAGame) as err:
            validate_signed_capacity(SetFunction(2, [0.1, 1, 1, 1]))
        assert err.value.empty_value == 0.1

    def test_only_empty_set_is_constrained(self):
        v = validate_signed_capacity(SetFunction(2, [0, 3, -1, 2]))
        assert v.value([2]) == -1.0


class TestValidateCapacity:
    def test_accepts_constant_above_empty(self):
        mu = validate_capacity(SetFunction(2, [0, 1, 1, 1]))
        assert isinstance(mu, Capacity)

    def test_rejects_with_witness(self):
        with pytest.raises(NotMonotone) as err:
            validate_capacity(SetFunction(2, [0, 3, -1, 2]))
        s_mask, t_mask, vs, vt = err.value.witness
        # the witness must be a genuine covering violation
        assert t_mask & s_mask == s_mask
        assert (t_mask ^ s_mask).bit_count() == 1
        assert vs > vt

    def test_accepts_vstar(self):
        # normalized, with the two halves on {1,3} and {2,3}
        mu = validate_capacity(SetFunction(3, [0, 0, 0, 0, 0, 0.5, 0.5, 1]))
        assert mu.value([1, 3]) == 0.5


class TestMobiusTransform:
    def test_unanimity_game_maps_to_delta(self):
        m = mobius_transform(unanimity_game(3, [1, 3]))
        expected = np.zeros(8)
        expected[0b101] = 1.0
        assert np.array_equal(m.coefficients, expected)

    def test_additive_game(self):
        # w = (2, 5): singletons carry the weights, the pair coefficient vanishes
        m = mobius_transform(SetFunction(2, [0, 2, 5, 7]))
        assert m.coefficients.tolist() == [0.0, 2.0, 5.0, 0.0]

    def test_inclusion_exclusion_example(self):
        m = mobius_transform(SetFunction(2, [0, 3, -1, 2]))
        assert m.coefficients.tolist() == [0.0, 3.0, -1.0, 0.0]


class TestZetaTransform:
    def test_delta_gives_unanimity_game(self):
        coeffs = np.zeros(8)
        coeffs[0b101] = 1.0
        f = zeta_transform(MobiusRepresentation(3, coeffs))
        assert np.array_equal(f.values, unanimity_game(3, [1, 3]).values)

    def test_zero_coefficients(self):
        f = zeta_transform(MobiusRepresentation(2, np.zeros(4)))
        assert not f.values.any()

    def test_round_trip_example(self):
        f = SetFunction(2, [0, 3, -1, 2])
        assert zeta_transform(mobius_transform(f)).values.tolist() == [0.0, 3.0, -1.0, 2.0]


class TestUnanimityGame:
    def test_n2_t2(self):
        assert unanimity_game(2, [2]).values.tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_full_set_only_on_full(self):
        v = unanimity_game(3, [1, 2, 3])
        assert v.values.tolist() == [0, 0, 0, 0, 0, 0, 0, 1]

    def test_n1(self):
        assert unanimity_game(1, [1]).values.tolist() == [0.0, 1.0]

    def test_empty_subset_rejected(self):
        with pytest.raises(EmptyT):
            unanimity_game(3, [])
        with pytest.raises(EmptyT):
            unanimity_game(3, 0)


class TestBasisDecomposition:
    def test_basis_element(self):
        v = unanimity_game(3, [1, 3])
        assert basis_decomposition(v) == [(0b101, 1.0)]

    def test_linear_combination(self):
        combo = validate_signed_capacity(
            2 * unanimity_game(3, [1]) - 3 * unanimity_game(3, [2, 3])
        )
        assert basis_decomposition(combo) == [(0b001, 2.0), (0b110, -3.0)]

    def test_zero_game(self):
        assert basis_decomposition(SignedCapacity(3, np.zeros(8))) == []

    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        v = random_signed_capacity(4, rng)
        total = np.zeros(16)
        for mask, coeff in basis_decomposition(v):
            total += coeff * unanimity_game(4, mask).values
        assert np.allclose(total, v.values, rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    data=st.data(),
)
def test_round_trip_identity(n, data):
    values = data.draw(
        st.lists(
            st.floats(-100, 100, allow_nan=False, allow_infinity=False),
            min_size=1 << n,
            max_size=1 << n,
        )
    )
    f = SetFunction(n, values)
    back = zeta_transform(mobius_transform(f))
    for a, b in zip(back.values, f.values):
        assert_close(a, b)


def test_round_trip_up_to_n12():
    rng = np.random.default_rng(0)
    for n in range(1, 13):
        f = SetFunction(n, rng.uniform(-1, 1, 1 << n))
        back = zeta_transform(mobius_transform(f))
        gap = np.abs(back.values - f.values)
        bound = np.maximum(1e-12, 1e-9 * np.abs(f.values))
        assert np.all(gap <= bound)


def test_fast_equals_naive_exactly_on_integers():
    rng = np.random.default_rng(1)
    for n in range(1, 9):
        f = SetFunction(n, rng.integers(-3, 4, 1 << n).astype(float))
        assert np.array_equal(
            mobius_transform(f).coefficients, mobius_naive(f).coefficients
        )


def test_fast_close_to_naive_on_reals():
    rng = np.random.default_rng(2)
    for n in range(1, 9):
        f = SetFunction(n, rng.uniform(-1, 1, 1 << n))
        fast = mobius_transform(f).coefficients
        naive = mobius_naive(f).coefficients
        gap = np.abs(fast - naive)
        bound = np.maximum(1e-12, 1e-12 * np.maximum(np.abs(fast), np.abs(naive)))
        assert np.all(gap <= np.maximum(bound, 1e-12))


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    b=st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_transform_linearity(a, b, seed):
    rng = np.random.default_rng(seed)
    n = 5
    f = random_set_function(n, rng)
    g = random_set_function(n, rng)
    lhs = mobius_transform(a * f + b * g).coefficients
    rhs = a * mobius_transform(f).coefficients + b * mobius_transform(g).coefficients
    for x, y in zip(lhs, rhs):
        assert_close(x, y, rel=1e-9, abs_tol=1e-9)


def test_basis_property_exact():
    for n in range(1, 7):
        for t_mask in range(1, 1 << n):
            coeffs = mobius_transform(unanimity_game(n, t_mask)).coefficients
            expected = np.zeros(1 << n)
            expected[t_mask] = 1.0
            assert np.array_equal(coeffs, expected)


def test_monotone_validation_soundness_exhaustive():
    # every accepted capacity is monotone on all ordered pairs S <= T,
    # enumerated via submask iteration (3^n pairs)
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        mu = random_capacity(n, rng)
        for t in range(1 << n):
            s = t
            while True:
                assert mu.values[s] <= mu.values[t]
                if s == 0:
                    break
                s = (s - 1) & t


def test_mobius_of_game_vanishes_on_empty():
    rng = np.random.default_rng(4)
    for _ in range(20):
        v = random_signed_capacity(5, rng)
        assert mobius_transform(v).coefficients[0] == 0.0


@pytest.mark.parametrize(
    "op, identity, reduce",
    [
        (np.minimum, np.inf, min),
        (np.add, 0.0, lambda a, b: a + b),
        (np.multiply, 1.0, lambda a, b: a * b),
    ],
)
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_subset_statistic_matches_per_mask_fold(op, identity, reduce, n):
    coords = list(np.random.default_rng(n).uniform(-5.0, 5.0, n))
    out = _subset_statistic(op, identity, coords)
    for mask in range(1 << n):
        expected = identity
        for e in elements_from_mask(mask):
            expected = reduce(expected, coords[e - 1])
        assert out[mask] == expected, (mask, out[mask], expected)
