"""Set-function representation, validation and transforms."""

import operator
import tracemalloc
import warnings

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
    as_mask,
    elements_from_mask,
    full_mask,
    mask_from_elements,
    mobius_transform,
    unanimity_game,
    validate_capacity,
    validate_signed_capacity,
    zeta_transform,
    _C_ORDER_BITS,
    _Fresh,
    _lattice_cumulation,
    _lattice_passes,
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

    @pytest.mark.parametrize("mask", [-1, 4])
    def test_out_of_range_mask(self, mask):
        with pytest.raises(ValueError, match=f"mask {mask} out of range for ground set of size 2"):
            as_mask(mask, 2)

    def test_elements_from_a_numpy_mask(self):
        assert elements_from_mask(np.int64(5)) == (1, 3)
        assert elements_from_mask(np.uint8(0)) == ()


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

    def test_a_callers_array_is_copied(self):
        values = np.array([0.0, 1.0])
        f = SetFunction(1, values)
        values[1] = 5.0
        assert f.value([1]) == 1.0
        assert values.flags.writeable

    def test_a_fresh_array_is_kept_without_a_copy(self):
        values = np.array([0.0, 1.0])
        f = SetFunction(1, _Fresh(values))
        assert f.values is values
        assert not values.flags.writeable

    def test_linear_combination(self):
        a = unanimity_game(3, [1])
        b = unanimity_game(3, [2, 3])
        combo = 2 * a - 3 * b
        assert isinstance(combo, SetFunction)
        assert combo.value([1]) == 2.0
        assert combo.value([2, 3]) == -3.0
        assert combo.value([1, 2, 3]) == -1.0

    # The class rule comes before the ground-set rule.
    @pytest.mark.parametrize("other, message", [
        (SetFunction(2, [0.0] * 4), "set functions live on different ground sets"),
        ([0.0, 1.0], "expected a SetFunction, got list"),
        (1, "expected a SetFunction, got int"),
        ("x", "expected a SetFunction, got str"),
    ], ids=["other0", "other1", "int", "str"])
    @pytest.mark.parametrize("op", [operator.add, operator.sub])
    def test_combination_needs_a_set_function_on_the_same_ground_set(self, op, other, message):
        with pytest.raises(ValueError) as info:
            op(SetFunction(1, [0.0, 1.0]), other)
        assert str(info.value) == message

    def test_indexing_is_value(self):
        f = SetFunction(2, [0.0, 1.0, 0.5, 2.0])
        assert SetFunction.__getitem__ is SetFunction.value
        assert [f[mask] for mask in range(4)] == [0.0, 1.0, 0.5, 2.0]
        assert f[[1, 2]] == f[np.int64(3)] == f.value({1, 2}) == 2.0
        m = MobiusRepresentation(2, [0.0, 1.0, 0.5, 0.5])
        assert m[[2]] == m[2] == 0.5

    @pytest.mark.parametrize("values", [
        np.array([0, 1, -1, 2]), np.array([0, 1, -1, 2], dtype=np.int8),
        np.array([0.0, 1.0, -1.0, 2.0], dtype=np.float32), [0, 1.0, np.int64(-1), np.float64(2)],
    ], ids=["int-array", "int8-array", "float32-array", "mixed-list"])
    def test_real_values_are_accepted(self, values):
        f = SetFunction(2, values)
        assert f.values.dtype == np.float64
        assert f.values.tolist() == [0.0, 1.0, -1.0, 2.0]

    def test_reprs(self):
        assert repr(SignedCapacity(1, [0.0, 1.5])) == "SignedCapacity(n=1, values=[0.0, 1.5])"
        m = MobiusRepresentation(1, [0.0, -2.0])
        assert repr(m) == "MobiusRepresentation(n=1, coefficients=[0.0, -2.0])"
        assert m[1] == -2.0


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

    def test_plain_set_function_game(self):
        combo = 2 * unanimity_game(3, [1]) - 3 * unanimity_game(3, [2, 3])
        assert type(combo) is SetFunction
        assert basis_decomposition(combo) == [(0b001, 2.0), (0b110, -3.0)]

    def test_non_game_has_no_expansion(self):
        # Its Mobius coefficient on the empty set would need unanimity_game(1, 0).
        with pytest.raises(NotAGame) as info:
            basis_decomposition(SetFunction(1, [1.0, 2.0]))
        assert str(info.value) == (
            "set function is not a game: value on the empty set is 1.0, expected exactly 0")

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


def _assert_same_bits(got, expected):
    """Equal values, NaN where NaN, and equal signs on every non-NaN entry."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)
    numbers = ~np.isnan(expected)
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(expected[numbers]))


# Drawn often enough to repeat (ties), with both signed zeros and both infinities.
SPECIAL_COORDS = np.array([-0.0, 0.0, np.inf, -np.inf, 1.5, -1.5, 0.25])


def _special_coords(rng, shape):
    """Two-decimal coordinates, about half of them taken from SPECIAL_COORDS."""
    x = rng.integers(-300, 301, shape) / 100
    special = rng.random(shape) < 0.5
    x[special] = rng.choice(SPECIAL_COORDS, shape)[special]
    return x


@pytest.mark.parametrize(
    "op, identity, reduce",
    [
        # np.minimum returns its second argument on ties (so min(0.0, -0.0) is -0.0).
        (np.minimum, np.inf, lambda a, b: a if a < b else b),
        (np.add, 0.0, lambda a, b: a + b),
        (np.multiply, 1.0, lambda a, b: a * b),
    ],
)
@pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
def test_subset_statistic_matches_per_mask_fold(op, identity, reduce, n):
    coords = [float(c) for c in _special_coords(np.random.default_rng(n), n)]
    with np.errstate(invalid="ignore"):
        out = _subset_statistic(op, identity, coords)
    expected = []
    for mask in range(1 << n):
        value = identity
        for e in elements_from_mask(mask):
            value = reduce(value, coords[e - 1])
        expected.append(value)
    _assert_same_bits(out, expected)


def _per_bit_statistic(op, identity, coords):
    """The per-bit lattice recursion _subset_statistic used to run: for each
    bit i, op(stat, x_i) on every mask with bit i, n passes over half the
    entries each."""
    columns = np.asarray(coords, dtype=float).T[..., None, None]
    out = np.empty(columns.shape[1:-2] + (1 << len(columns),))
    out.fill(identity)
    for i, column in enumerate(columns):
        hi = out.reshape(out.shape[:-1] + (-1, 2, 1 << i))[..., 1, :]
        op(hi, column, out=hi)
    return out


@pytest.mark.parametrize(
    "op, identity", [(np.minimum, np.inf), (np.add, 0.0), (np.multiply, 1.0)]
)
@pytest.mark.parametrize("n", range(1, 17))
def test_subset_statistic_equals_the_per_bit_recursion_bit_for_bit(op, identity, n):
    rng = np.random.default_rng([n, 17])
    for coords in (_special_coords(rng, n), _special_coords(rng, (3, n))):
        with np.errstate(invalid="ignore"):
            got = _subset_statistic(op, identity, coords)
            expected = _per_bit_statistic(op, identity, coords)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize(
    "op, identity", [(np.minimum, np.inf), (np.add, 0.0), (np.multiply, 1.0)]
)
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_batched_subset_statistic_equals_the_point_fold_row_by_row(op, identity, n):
    rng = np.random.default_rng(n)
    points = rng.integers(-300, 301, (40, n)) / 100
    points[rng.random(points.shape) < 0.1] = -0.0
    rows = _subset_statistic(op, identity, points)
    assert rows.shape == (40, 1 << n)
    for row, x in zip(rows, points):
        expected = _subset_statistic(op, identity, list(x))
        assert np.array_equal(row, expected)
        assert np.array_equal(np.signbit(row), np.signbit(expected))


def test_batched_lattice_cumulation_equals_the_transform_row_by_row():
    games = [random_signed_capacity(6, seed) for seed in range(20)]
    rows = _lattice_cumulation(np.array([v.values for v in games]), np.subtract, "mobius_transform")
    for row, v in zip(rows, games):
        assert np.array_equal(row, mobius_transform(v).coefficients)


@pytest.mark.parametrize("scalar", [float("inf"), float("-inf"), float("nan")])
def test_scaling_by_a_non_finite_scalar_names_the_scalar(scalar):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            SetFunction(1, [0.0, 1.0]) * scalar
    assert str(info.value) == f"scale factor must be finite, got {scalar!r}"


_GAME_16 = random_signed_capacity(16, 1)


@pytest.mark.parametrize("build", [
    lambda: random_set_function(16, 1),
    lambda: random_signed_capacity(16, 1),
    lambda: mobius_transform(_GAME_16),
    lambda: _GAME_16 + _GAME_16,
    lambda: _GAME_16 - _GAME_16,
    lambda: _GAME_16 * 2.0,
], ids=["random_set_function", "random_signed_capacity", "mobius_transform", "add", "sub", "mul"])
def test_a_set_function_built_by_the_package_is_not_copied_again(build):
    # numpy reports its array memory to tracemalloc.  Keeping the array the
    # package has just built, instead of copying it, holds the peak of one
    # construction to about one 2**n array rather than two.
    array_bytes = 8 << 16
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built.n == 16
    assert peak - before < 1.5 * array_bytes


def _first_violation_by_scan(values):
    """Brute force: the first covering pair with v(S) > v(S + {i}), bits
    ascending, then masks ascending."""
    n = len(values).bit_length() - 1
    for i in range(n):
        for s in range(1 << n):
            t = s | (1 << i)
            if s != t and values[s] > values[t]:
                return s, t, float(values[s]), float(values[t])
    return None


@pytest.mark.parametrize("n", range(1, 11))
def test_not_monotone_names_the_first_covering_violation_in_scan_order(n):
    # Values drawn from a few levels, so ties are common, with both signed
    # zeros (equal, so never a violation).  Half the cases are first made
    # monotone along the bits below a random bit b (a running maximum over
    # those bits), so their first violation is at bit b or above, at masks
    # whose bits below b vary: the views of one bit each hold some of them.
    rng = np.random.default_rng([n, 29])
    levels = np.array([-0.5, -0.0, 0.0, 0.5, 1.0])
    bits = set()
    for case in range(40):
        values = rng.choice(levels, 1 << n)
        values[0] = rng.choice(levels[1:3])
        if case % 2:
            for j in range(rng.integers(0, n)):
                for mask in range(1 << n):
                    if mask >> j & 1:
                        values[mask] = max(values[mask], values[mask ^ (1 << j)])
        expected = _first_violation_by_scan(values)
        if expected is None:
            assert Capacity(n, values).values.tobytes() == values.tobytes()
            continue
        with pytest.raises(NotMonotone) as info:
            Capacity(n, values)
        assert info.value.witness == expected
        assert np.signbit(info.value.witness[2:]).tolist() == np.signbit(expected[2:]).tolist()
        bits.add((expected[0] ^ expected[1]).bit_length() - 1)
    assert len(bits) >= min(n, 3)


@pytest.mark.parametrize("rows", [(), (3,)], ids=["one", "rows"])
@pytest.mark.parametrize("n", range(1, 11))
def test_lattice_passes_cover_each_covering_pair_once(n, rows):
    # Each entry holds its own flat index, so a view's entries name the
    # (row, mask) they sit at.
    size = 1 << n
    arr = np.arange(np.prod(rows, dtype=int) * size, dtype=float).reshape(rows + (size,))
    everything = np.arange(arr.size)
    passes = list(_lattice_passes(arr))
    assert [i for i, *_ in passes] == list(range(n))
    for i, lo, hi, order in passes:
        assert order == ("C" if i < _C_ORDER_BITS else "K")
        assert np.shares_memory(lo, arr) and np.shares_memory(hi, arr)
        assert lo.shape == hi.shape == (1 << i, *rows, size >> (i + 1))
        j, *row, block = np.indices(lo.shape)  # row is [] without a rows axis
        assert np.array_equal(lo, sum(row, 0) * size + (block << (i + 1)) + j)
        assert np.array_equal(hi, lo + (1 << i))
        expected = everything[(everything & (1 << i)) == 0]  # flat index keeps the mask's low bits
        assert sorted(lo.ravel().tolist()) == expected.tolist()


@pytest.mark.parametrize("rows", [(), (3,)], ids=["one", "rows"])
def test_lattice_cumulation_calls_its_op_once_per_bit(rows):
    for n in range(1, 11):
        calls = []

        def counting_subtract(*args, **kwargs):
            calls.append(args)
            return np.subtract(*args, **kwargs)

        _lattice_cumulation(np.zeros(rows + (1 << n,)), counting_subtract, "mobius_transform")
        assert len(calls) == n


def test_a_batched_lattice_cumulation_works_on_its_views_in_place():
    # numpy copies a ufunc input that may overlap the output.  No lo entry of
    # a pass is an hi entry, so no pass copies: the peak stays near the one
    # result array, where a copy of lo alone would add half of it.
    # test_a_set_function_built_by_the_package_is_not_copied_again holds
    # mobius_transform at n = 16 to the same bound.
    values = np.random.default_rng(5).random((64, 1024))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _lattice_cumulation(values, np.subtract, "mobius_transform")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 1.5 * values.nbytes
