"""The checkers' block arithmetic against the per-row numpy calls it replaces.

`_row_dots` takes one dot product per row with `np.vecdot`, `_row_sums`
adds each row with one `np.cumsum`, and `_monotone_maps` evaluates numpy's
interp rules as array arithmetic.  They must give the bits of the per-row
`a @ b`, the per-column loop and the per-row `np.interp` calls.
"""

import numpy as np
import pytest

from choquet.axioms import _monotone_maps, _uniform
from choquet.integral import _row_dots, _row_sums


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# Lengths 1-64 and two long rows: OpenBLAS sums rows from 16 terms with a
# SIMD kernel and shorter ones with another.
@pytest.mark.parametrize("length", list(range(1, 65)) + [4096, 8192])
def test_row_dots_are_the_per_row_dot_products(length):
    rng = np.random.default_rng(length)
    # Mixed magnitudes and signs, so that the order of the sum shows in the bits.
    rows = rng.standard_normal((5, length)) * 10.0 ** rng.integers(-8, 9, (5, length))
    shared = rng.standard_normal(length)
    assert same_bits(_row_dots(shared, rows), np.array([shared @ row for row in rows]))
    per_row = rng.standard_normal((5, length))
    assert same_bits(_row_dots(per_row, rows), np.array([a @ b for a, b in zip(per_row, rows)]))
    # The offset slices m[..., 1:] that the weighted-mean family and
    # choquet_mobius pass, shared and one per row.
    for m in rng.standard_normal(length + 1), rng.standard_normal((5, length + 1)):
        offset = m[..., 1:]
        expected = [(offset if offset.ndim == 1 else offset[i]) @ row for i, row in enumerate(rows)]
        assert same_bits(_row_dots(offset, rows), np.array(expected))


def loop_sums(terms: np.ndarray) -> np.ndarray:
    """The per-column loop the linearity checker once summed its Mobius
    expansion with: one numpy call per nonempty mask, from +0.0."""
    total = np.zeros(len(terms))
    for column in terms.T:
        total += column
    return total


@pytest.mark.parametrize("rows", [1, 5, 256])
def test_row_sums_are_the_per_column_loop(rows):
    rng = np.random.default_rng(rows)
    shape = (rows, 1023)
    pool = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    pool[rng.random(shape) < 0.2] = 0.0
    pool[rng.random(shape) < 0.2] = -0.0
    pool[2::4] = rng.choice([0.0, -0.0], pool[2::4].shape)
    pool[3::4] = -0.0  # rows of -0.0 only, which the loop sums to +0.0
    for width in range(1, 1024):
        terms = pool[:, :width]
        got, expected = _row_sums(terms), loop_sums(terms)
        assert (got.view(np.uint64) == expected.view(np.uint64)).all(), width


def interp_maps(base: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The maps of _monotone_maps with one np.interp per row and map."""
    out = np.empty((len(base), u.shape[1], base.shape[1]))
    for i in range(u.shape[1]):
        knots = -7.0 + np.cumsum(_uniform(u[:, i, :5], 0.1, 3.5), axis=1)
        levels = _uniform(u[:, i, 5:6], -5.0, 5.0) + np.cumsum(_uniform(u[:, i, 6:11], 0.0, 2.0), axis=1)
        out[:, i] = [np.interp(b, k, v) for b, k, v in zip(base, knots, levels)]
    return out


@pytest.mark.parametrize("n", [1, 2, 4, 8, 13, 16])
@pytest.mark.parametrize("rows", [1, 300])
def test_monotone_maps_are_np_interp(n, rows):
    rng = np.random.default_rng([n, rows])
    u = rng.random((rows, 2, 11))
    knots = -7.0 + np.cumsum(_uniform(u[..., :5], 0.1, 3.5), axis=-1)  # (rows, 2, 5)
    # Per row, points below the first knot, on every knot, at and above the
    # last knot and between knots of either map, n of them drawn at random.
    candidates = np.concatenate([
        knots[:, :, :1] - rng.uniform(0.0, 5.0, (rows, 2, 1)),
        knots,
        knots[:, :, 4:] + rng.uniform(0.0, 5.0, (rows, 2, 1)),
        knots[:, :, :4] + rng.random((rows, 2, 4)) * np.diff(knots, axis=-1),
    ], axis=-1).reshape(rows, -1)
    pick = rng.integers(candidates.shape[1], size=(rows, n))
    base = np.take_along_axis(candidates, pick, axis=1)
    if rows == 1:  # map 0's points in order: below, on each knot, above, between
        base[0] = candidates[0, :n]
    assert same_bits(_monotone_maps(base, u), interp_maps(base, u))
    if rows > 1:
        # Every kind of point was drawn for map 0: below, on each knot, above.
        k = knots[:, 0]
        assert (base < k[:, :1]).any() and (base > k[:, 4:]).any()
        assert all((base == k[:, j:j + 1]).any() for j in range(5))
