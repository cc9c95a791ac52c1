"""Brute-force reference implementations for cross-checking the main paths.

Everything here is deliberately slow, literal and arithmetically independent
of the fast code: the transform is a double loop over subset pairs, and the
permutation sweep and the family evaluators run in exact rational arithmetic
so that mathematically equal values compare equal regardless of summation
order.  Ground-set sizes are capped because the point is verification, not
performance.  Arguments are checked by the package's argument rules, which
compute nothing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import prod
from typing import Sequence

import numpy as np

from .axioms import Aggregator
from .errors import GroundSetTooLarge
from .integral import _coerce_point, lovasz_extension
from .names import FAMILY_CHOQUET, FAMILY_MULTILINEAR, FAMILY_VSTAR_PATCH, FAMILY_WEIGHTED_MEAN
from .setfunction import (
    MobiusRepresentation, SetFunction, SignedCapacity, _require_count, _require_game,
    _require_game_on, _require_instance, _require_integer, _require_seed,
)

MAX_N_NAIVE_MOBIUS = 12
MAX_N_ALL_PERMUTATIONS = 6
MAX_N_AFFINE_CHECK = 8
MAX_N_EXACT_FAMILY = 8

_REL_TOL = 1e-9
_ABS_TOL = 1e-12


def _signed_subset_sums(values: list) -> list:
    """Per mask S, the sum over T <= S of (-1)**|S - T| * values[T]: from 0,
    values[T] added or subtracted in descending T.  Floats give floats and
    Fractions give Fractions."""
    sums = []
    for s in range(len(values)):
        total, t = 0, s
        while True:
            total = total - values[t] if (s.bit_count() - t.bit_count()) % 2 else total + values[t]
            if t == 0:
                break
            t = (t - 1) & s
        sums.append(total)
    return sums


def mobius_naive(f: SetFunction) -> MobiusRepresentation:
    """Mobius coefficients by direct signed summation over subset pairs.

    Literal O(3**n) double loop; shares no arithmetic with the fast
    transform.  Bounded at n <= 12.
    """
    _require_instance(f, SetFunction)
    if f.n > MAX_N_NAIVE_MOBIUS:
        raise GroundSetTooLarge(f.n, MAX_N_NAIVE_MOBIUS)
    return MobiusRepresentation(f.n, np.array(_signed_subset_sums(f.values.tolist()), dtype=float))


def _chain_sum(values: list[Fraction], coords: list[Fraction], order: Sequence[int]) -> Fraction:
    """The sum over i of (v(A_i) - v(A_(i+1))) * x_order[i], where A_i holds
    the elements order[i:] (0-based) and A_n is empty."""
    total, mask, above = Fraction(0), 0, values[0]
    for i in reversed(order):
        mask |= 1 << i
        total += (values[mask] - above) * coords[i]
        above = values[mask]
    return total


def choquet_all_permutations(v: SetFunction, x: Sequence[float]) -> set[float]:
    """Distinct integral values over every permutation that validly sorts x.

    Evaluates the chain sum in exact rational arithmetic (floats are exact
    rationals), so two permutations produce the same set element iff their
    sums are mathematically equal: a singleton certifies that the integral
    does not depend on how ties are broken.  Bounded at n <= 6.
    """
    _require_instance(v, SetFunction)
    if v.n > MAX_N_ALL_PERMUTATIONS:
        raise GroundSetTooLarge(v.n, MAX_N_ALL_PERMUTATIONS)
    _require_game(v)
    n = v.n
    coords = [Fraction(c) for c in _coerce_point(x, n)]
    exact_values = [Fraction(val) for val in v.values.tolist()]

    results = {
        _chain_sum(exact_values, coords, order) for order in permutations(range(n))
        if all(coords[order[i]] <= coords[order[i + 1]] for i in range(n - 1))
    }
    return {float(r) for r in results}


def _exact_choquet(values: list[Fraction], coords: list[Fraction]) -> Fraction:
    """The chain sum along the ascending order of the coordinates."""
    return _chain_sum(values, coords, sorted(range(len(coords)), key=coords.__getitem__))


def _members(mask: int, n: int) -> list[int]:
    """The 0-based elements of a mask."""
    return [i for i in range(n) if mask >> i & 1]


def _exact_weighted_mean(values: list[Fraction], coords: list[Fraction]) -> Fraction:
    """The sum over nonempty T of m(T) times the mean of x over T."""
    m, n = _signed_subset_sums(values), len(coords)
    return sum(m[t] * sum(coords[i] for i in _members(t, n)) / t.bit_count()
               for t in range(1, len(m)))


def _exact_multilinear(values: list[Fraction], coords: list[Fraction]) -> Fraction:
    """The sum over T of m(T) times the product of x over T."""
    m, n = _signed_subset_sums(values), len(coords)
    return sum(m[t] * prod(coords[i] for i in _members(t, n)) for t in range(len(m)))


# The capacity the vstar-patch family overrides: 1/2 on {1, 3} and {2, 3}.
_VSTAR = [Fraction(0)] * 5 + [Fraction(1, 2)] * 2 + [Fraction(1)]


def _exact_vstar_patch(values: list[Fraction], coords: list[Fraction]) -> Fraction:
    """At vstar the mean of the first two coordinates capped at the third,
    elsewhere the integral."""
    if values == _VSTAR:
        return min((coords[0] + coords[1]) / 2, coords[2])
    return _exact_choquet(values, coords)


# The exact evaluator of each family, on a game's values and a point as Fractions.
EXACT_EVALUATORS = {
    FAMILY_CHOQUET: _exact_choquet,
    FAMILY_WEIGHTED_MEAN: _exact_weighted_mean,
    FAMILY_MULTILINEAR: _exact_multilinear,
    FAMILY_VSTAR_PATCH: _exact_vstar_patch,
}


def evaluate_family_exact(agg: Aggregator, v: SignedCapacity, x: Sequence[float]) -> Fraction:
    """The family of agg at game v and point x in exact rational arithmetic
    (floats are exact rationals), for comparison with evaluate_family.

    Takes its arguments by the rules of evaluate_family; shares no
    arithmetic with it.  Bounded at n <= 8.
    """
    _require_instance(agg, Aggregator)
    if agg.n > MAX_N_EXACT_FAMILY:
        raise GroundSetTooLarge(agg.n, MAX_N_EXACT_FAMILY)
    _require_game_on(v, agg.n)
    coords = [Fraction(c) for c in _coerce_point(x, agg.n)]
    return EXACT_EVALUATORS[agg.family]([Fraction(c) for c in v.values.tolist()], coords)


def lovasz_affine_check(
    f: SetFunction,
    order: Sequence[int],
    trials: int = 100,
    seed: int = 0,
) -> bool:
    """Sample segments inside one sorting cone and test the extension is affine.

    The cone of a permutation pi holds the points whose coordinates are
    nondecreasing along pi; it is convex, so segments stay inside.  Returns
    True iff lovasz_extension is affine on every sampled segment within
    relative tolerance 1e-9 (absolute floor 1e-12).  Bounded at n <= 8;
    order is a sequence of integers, trials a count (>= 1) and seed >= 0.
    """
    trials, seed = _require_count("trials", trials), _require_seed(seed)
    _require_instance(f, SetFunction)
    if f.n > MAX_N_AFFINE_CHECK:
        raise GroundSetTooLarge(f.n, MAX_N_AFFINE_CHECK)
    n = f.n
    try:
        perm = [_require_integer("order element", p) for p in order]
    except TypeError:  # order is not iterable
        raise ValueError(f"order must be a sequence of integers, got {order!r}") from None
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{order!r} is not a permutation of 1..{n}")
    rng = np.random.default_rng(seed)

    def cone_point() -> np.ndarray:
        levels = np.sort(rng.uniform(-5.0, 5.0, n))
        point = np.empty(n)
        for i, element in enumerate(perm):
            point[element - 1] = levels[i]
        return point

    for _ in range(trials):
        a = cone_point()
        b = cone_point()
        lam = rng.uniform(0.0, 1.0)
        lhs = lovasz_extension(f, lam * a + (1.0 - lam) * b).value
        rhs = lam * lovasz_extension(f, a).value + (1.0 - lam) * lovasz_extension(f, b).value
        if abs(lhs - rhs) > max(_ABS_TOL, _REL_TOL * max(abs(lhs), abs(rhs))):
            return False
    return True
