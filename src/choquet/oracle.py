"""Brute-force reference implementations for cross-checking the main paths.

Everything here is deliberately slow, literal and arithmetically independent
of the fast code: the transform is a double loop over subset pairs, and the
permutation sweep runs in exact rational arithmetic so that mathematically
equal values compare equal regardless of summation order.  Ground-set sizes
are capped because the point is verification, not performance.  Arguments
are checked by the package's argument rules, which compute nothing.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import Sequence

import numpy as np

from .errors import GroundSetTooLarge
from .integral import _coerce_point, lovasz_extension
from .setfunction import (
    MobiusRepresentation, SetFunction, _require_count, _require_game, _require_instance,
    _require_integer, _require_seed,
)

MAX_N_NAIVE_MOBIUS = 12
MAX_N_ALL_PERMUTATIONS = 6
MAX_N_AFFINE_CHECK = 8

_REL_TOL = 1e-9
_ABS_TOL = 1e-12


def mobius_naive(f: SetFunction) -> MobiusRepresentation:
    """Mobius coefficients by direct signed summation over subset pairs.

    Literal O(3**n) double loop; shares no arithmetic with the fast
    transform.  Bounded at n <= 12.
    """
    _require_instance(f, SetFunction)
    if f.n > MAX_N_NAIVE_MOBIUS:
        raise GroundSetTooLarge(f.n, MAX_N_NAIVE_MOBIUS)
    values = f.values.tolist()
    size = 1 << f.n
    coeffs = np.zeros(size)
    for s in range(size):
        total = 0.0
        t = s
        while True:
            sign = -1.0 if (s.bit_count() - t.bit_count()) % 2 else 1.0
            total += sign * values[t]
            if t == 0:
                break
            t = (t - 1) & s
        coeffs[s] = total
    return MobiusRepresentation(f.n, coeffs)


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

    results: set[Fraction] = set()
    for perm in permutations(range(1, n + 1)):
        if any(coords[perm[i] - 1] > coords[perm[i + 1] - 1] for i in range(n - 1)):
            continue
        chain = [0] * (n + 1)
        mask = 0
        for i in range(n - 1, -1, -1):
            mask |= 1 << (perm[i] - 1)
            chain[i] = mask
        total = Fraction(0)
        for i in range(n):
            total += (exact_values[chain[i]] - exact_values[chain[i + 1]]) * coords[perm[i] - 1]
        results.add(total)
    return {float(r) for r in results}


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
