"""Signed Choquet integrals and Lovasz extensions of set functions.

Two independent evaluation routes are provided:

* the permutation route (`choquet`, `lovasz_extension`): sort the point,
  walk the chain of upper sets {pi(i), ..., pi(n)} and accumulate the
  telescoping differences;
* the Mobius route (`choquet_mobius`): a weighted sum of coordinate minima
  over subsets, using the Mobius coefficients.

Both compute the same function; tests and the acceptance suite cross-check
them against each other.  A value that overflows the float range raises
NonFiniteResult.  Points are plain sequences of reals; everything here is a
pure function over immutable inputs.  The package's row reductions are here:
_row_dots (one BLAS dot per row) and _row_sums (a left-to-right sum).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, NonFiniteResult, NotAGame
from .setfunction import (
    MobiusRepresentation, SetFunction, _finite_float, _require_instance, _subset_statistic,
)


@dataclass(frozen=True)
class SortPermutation:
    """A permutation pi of [n] sorting a point into nondecreasing order.

    Attributes:
        order: tuple of 1-based elements; order[i-1] = pi(i).
        upper_chain: masks of the upper sets {pi(i), ..., pi(n)}; the first
            entry is the full mask and each later entry removes one element.
    """

    order: tuple[int, ...]
    upper_chain: tuple[int, ...]


@dataclass(frozen=True)
class EvaluationResult:
    """Value of an integral evaluation plus the sorting permutation it used.

    The Mobius route involves no permutation and reports None.
    """

    value: float
    permutation_used: Optional[SortPermutation]

    def __float__(self) -> float:
        return self.value


def _coerce_point(x: Sequence[float], n: Optional[int] = None) -> list[float]:
    """x as a list of finite floats, of length n if n is given: the package's one
    conversion of a point.  Each coordinate is converted by _finite_float, so
    a coordinate that is not a finite real, or an x that is not iterable,
    raises ValueError.  A wrong length raises DimensionMismatch."""
    try:
        coords = list(x)
    except TypeError:
        raise ValueError(f"point must be a sequence of real numbers, got {x!r}") from None
    if n is not None and len(coords) != n:
        raise DimensionMismatch(n, len(coords))
    for i, c in enumerate(coords):
        if type(c) is not float or not isfinite(c):
            coords[i] = _finite_float("point coordinate", c)
    return coords


def sort_permutation(x: Sequence[float]) -> SortPermutation:
    """Sorting permutation of a point, ties broken by smaller element first.

    The stable (value, index) order makes the result deterministic; the
    integral value itself does not depend on how ties are broken, which is
    asserted separately as an invariant.
    """
    return _sort(_coerce_point(x))


def _sort(coords: list[float]) -> SortPermutation:
    """sort_permutation of finite coords: a stable sort, so ties keep ascending order."""
    return _permutation(sorted(range(len(coords)), key=coords.__getitem__))


def _permutation(indices: list[int]) -> SortPermutation:
    """SortPermutation of 0-based indices in sorted order, with its upper chain."""
    n = len(indices)
    chain = [0] * n
    mask = 0
    for i in range(n - 1, -1, -1):
        mask |= 1 << indices[i]
        chain[i] = mask
    return SortPermutation(tuple(i + 1 for i in indices), tuple(chain))


def _finite(value: float, operation: str) -> float:
    if not isfinite(value):
        raise NonFiniteResult(operation)
    return value


def _chain_sum(values: np.ndarray, coords: list[float], perm: SortPermutation) -> float:
    """sum over i of (f_i - f_{i+1}) * x_{pi(i)}, with f_{n+1} = f(empty).

    Terms accumulate left to right in ascending i, so the result is
    bit-for-bit reproducible.
    """
    f = values[[*perm.upper_chain, 0]].tolist()
    total = 0.0
    for i, element in enumerate(perm.order):
        total += (f[i] - f[i + 1]) * coords[element - 1]
    return total


def _chain_sums(values: np.ndarray, X: np.ndarray) -> np.ndarray:
    """_chain_sum of every row of X, shape (k, n), at one set function
    (values of shape (2**n,)) or at one set function per row ((k, 2**n)).

    A stable row argsort orders ties as sort_permutation does, and the
    differences and products are the same float operations as _chain_sum's,
    and _row_sums adds them in its order, so every entry equals the scalar
    route bit for bit.  Overflow is not checked: its rows come out non-finite.
    """
    k, n = X.shape
    rows = np.arange(k)[:, None]
    order = np.argsort(X, axis=1, kind="stable")
    chain = np.zeros((k, n + 1), dtype=np.int64)  # upper sets of each row, then the empty set
    chain[:, :n] = np.cumsum((1 << order)[:, ::-1], axis=1)[:, ::-1]
    f = values[chain] if values.ndim == 1 else values[rows, chain]
    terms = (f[:, :-1] - f[:, 1:]) * X[rows, order]
    return _row_sums(terms)


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """The sum of each row of terms (k, w), w >= 1, added left to right as a
    loop from 0.0 adds them.  The running sum starts from the first term, so
    it differs from the loop only where every term is -0.0; adding 0.0 turns
    that into the loop's +0.0 and leaves every other sum as it is."""
    return np.cumsum(terms, axis=1)[:, -1] + 0.0


def _row_dots(m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """m @ row for every row (or m @ rows for one vector), with m one vector
    or one per row.  One dot product per row, the ddot of a @ b: a matrix
    product sums in another order, and differs from it in the last bits."""
    return np.vecdot(m, rows)


def choquet(v: SetFunction, x: Sequence[float]) -> EvaluationResult:
    """Signed Choquet integral of x with respect to a game v.

    Raises ValueError unless v is a SetFunction, NotAGame if v(empty) != 0
    (use lovasz_extension for general set functions) and DimensionMismatch
    if the point length differs from v.n.
    """
    _require_instance(v, SetFunction)
    if v.values[0] != 0.0:
        raise NotAGame(v.values[0])
    coords = _coerce_point(x, v.n)
    perm = _sort(coords)
    return EvaluationResult(_finite(_chain_sum(v.values, coords, perm), "choquet"), perm)


def lovasz_extension(f: SetFunction, x: Sequence[float]) -> EvaluationResult:
    """Lovasz extension of a set function, with the f(empty) offset.

    Affine on each sorting cone and interpolates f at the vertices of the
    unit cube: the value at the indicator vector of S is exactly f(S).
    Coincides with the signed Choquet integral when f(empty) = 0.
    """
    _require_instance(f, SetFunction)
    coords = _coerce_point(x, f.n)
    perm = _sort(coords)
    value = float(f.values[0]) + _chain_sum(f.values, coords, perm)
    return EvaluationResult(_finite(value, "lovasz_extension"), perm)


def choquet_mobius(m: MobiusRepresentation, x: Sequence[float]) -> EvaluationResult:
    """Evaluate sum over S of m(S) * min over S of x_i.

    The empty-set term contributes m(empty) verbatim as a constant offset,
    so this route also evaluates general Lovasz extensions; it is a signed
    Choquet integral exactly when m(empty) = 0.

    O(2**n) per point: the subset minima are built by prefix doubling, one
    write per mask, and each minimum is still folded over the mask's
    coordinates in ascending element order (see _subset_statistic), so the
    value is the one a per-mask fold gives, bit for bit.
    """
    _require_instance(m, MobiusRepresentation)
    coords = _coerce_point(x, m.n)
    mins = _subset_statistic(np.minimum, np.inf, coords)  # entry 0 (+inf) is unused
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(m.coefficients[0]) + float(_row_dots(m.coefficients[1:], mins[1:]))
    return EvaluationResult(_finite(value, "choquet_mobius"), None)


def comonotonic(x: Sequence[float], y: Sequence[float]) -> bool:
    """True iff (x_i - x_j) * (y_i - y_j) >= 0 for all pairs i < j.

    Equivalent to the two points sharing a sorting permutation (see
    common_sort_permutation, which computes one).
    """
    xs = _coerce_point(x)
    ys = _coerce_point(y, len(xs))
    n = len(xs)
    for i in range(n):
        for j in range(i + 1, n):
            if (xs[i] - xs[j]) * (ys[i] - ys[j]) < 0.0:
                return False
    return True


def common_sort_permutation(
    x: Sequence[float], y: Sequence[float]
) -> Optional[SortPermutation]:
    """A permutation sorting both points, or None if none exists.

    Sorting lexicographically by (x_i, y_i, i) finds a common permutation
    whenever the points are comonotonic, so this is an independent route to
    the same predicate as `comonotonic`.
    """
    xs = _coerce_point(x)
    ys = _coerce_point(y, len(xs))
    n = len(xs)
    candidate = sorted(range(n), key=lambda i: (xs[i], ys[i], i))
    for a, b in zip(candidate, candidate[1:]):
        if xs[a] > xs[b] or ys[a] > ys[b]:
            return None
    return _permutation(candidate)
