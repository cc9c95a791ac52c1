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
pure function over immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, NonFiniteResult, NotAGame
from .setfunction import MobiusRepresentation, SetFunction, _subset_statistic


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


def _coerce_point(x: Sequence[float], n: int) -> list[float]:
    coords = [float(c) for c in x]
    if len(coords) != n:
        raise DimensionMismatch(n, len(coords))
    for c in coords:
        if not isfinite(c):
            raise ValueError(f"point has non-finite coordinate {c!r}")
    return coords


def sort_permutation(x: Sequence[float]) -> SortPermutation:
    """Sorting permutation of a point, ties broken by smaller element first.

    The stable (value, index) order makes the result deterministic; the
    integral value itself does not depend on how ties are broken, which is
    asserted separately as an invariant.
    """
    coords = [float(c) for c in x]
    return _permutation(sorted(range(len(coords)), key=lambda i: (coords[i], i)))


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
    order, chain = perm.order, perm.upper_chain
    n = len(order)
    empty = float(values[0])
    total = 0.0
    for i in range(n):
        hi = float(values[chain[i]])
        lo = float(values[chain[i + 1]]) if i + 1 < n else empty
        total += (hi - lo) * coords[order[i] - 1]
    return total


def choquet(v: SetFunction, x: Sequence[float]) -> EvaluationResult:
    """Signed Choquet integral of x with respect to a game v.

    Raises NotAGame if v(empty) != 0 (use lovasz_extension for general set
    functions) and DimensionMismatch if the point length differs from v.n.
    """
    if v.values[0] != 0.0:
        raise NotAGame(v.values[0])
    coords = _coerce_point(x, v.n)
    perm = sort_permutation(coords)
    return EvaluationResult(_finite(_chain_sum(v.values, coords, perm), "choquet"), perm)


def lovasz_extension(f: SetFunction, x: Sequence[float]) -> EvaluationResult:
    """Lovasz extension of a set function, with the f(empty) offset.

    Affine on each sorting cone and interpolates f at the vertices of the
    unit cube: the value at the indicator vector of S is exactly f(S).
    Coincides with the signed Choquet integral when f(empty) = 0.
    """
    coords = _coerce_point(x, f.n)
    perm = sort_permutation(coords)
    value = float(f.values[0]) + _chain_sum(f.values, coords, perm)
    return EvaluationResult(_finite(value, "lovasz_extension"), perm)


def choquet_mobius(m: MobiusRepresentation, x: Sequence[float]) -> EvaluationResult:
    """Evaluate sum over S of m(S) * min over S of x_i.

    The empty-set term contributes m(empty) verbatim as a constant offset,
    so this route also evaluates general Lovasz extensions; it is a signed
    Choquet integral exactly when m(empty) = 0.
    """
    coords = _coerce_point(x, m.n)
    mins = _subset_statistic(np.minimum, np.inf, coords)  # entry 0 (+inf) is unused
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(m.coefficients[0]) + float(m.coefficients[1:] @ mins[1:])
    return EvaluationResult(_finite(value, "choquet_mobius"), None)


def comonotonic(x: Sequence[float], y: Sequence[float]) -> bool:
    """True iff (x_i - x_j) * (y_i - y_j) >= 0 for all pairs i < j.

    Equivalent to the two points sharing a sorting permutation (see
    common_sort_permutation, which computes one).
    """
    xs = [float(c) for c in x]
    ys = [float(c) for c in y]
    if len(xs) != len(ys):
        raise DimensionMismatch(len(xs), len(ys))
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
    xs = [float(c) for c in x]
    ys = [float(c) for c in y]
    if len(xs) != len(ys):
        raise DimensionMismatch(len(xs), len(ys))
    n = len(xs)
    candidate = sorted(range(n), key=lambda i: (xs[i], ys[i], i))
    for a, b in zip(candidate, candidate[1:]):
        if xs[a] > xs[b] or ys[a] > ys[b]:
            return None
    return _permutation(candidate)
