"""Random set-function generators (deterministic given a seed)."""

from __future__ import annotations

from typing import Union

import numpy as np

from .setfunction import (
    Capacity, SetFunction, SignedCapacity, _Fresh, _ground_set, _require_seed,
)

SeedLike = Union[int, np.random.Generator]


def _as_rng(n: int, seed: SeedLike) -> np.random.Generator:
    """The generator for seed (a Generator, or a seed under _require_seed),
    after checking n by _ground_set, before anything is allocated."""
    _ground_set(n)
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_require_seed(seed))


def random_set_function(n: int, seed: SeedLike = 0) -> SetFunction:
    """Arbitrary set function with i.i.d. uniform values on [-1, 1]."""
    rng = _as_rng(n, seed)
    return SetFunction(n, _Fresh(rng.uniform(-1.0, 1.0, 1 << n)))


def random_signed_capacity(n: int, seed: SeedLike = 0) -> SignedCapacity:
    """Game with i.i.d. uniform values on [-1, 1] and v(empty) = 0."""
    rng = _as_rng(n, seed)
    values = rng.uniform(-1.0, 1.0, 1 << n)
    values[0] = 0.0
    return SignedCapacity(n, _Fresh(values))


def random_capacity(n: int, seed: SeedLike = 0) -> Capacity:
    """Monotone capacity built by cumulative maxima along the lattice.

    Each nonempty subset receives the maximum of 0.0 and the values on its
    lower covers (the subsets one element smaller) plus a nonnegative
    increment, which guarantees every covering pair is nondecreasing.

    The subsets are filled one size at a time, k = 1..n, since the lower
    covers of a k-subset all have k - 1 elements.  For the masks of one size
    (found in a table of subset sizes), the k lower covers are gathered by
    clearing the set bits from the lowest up, and np.maximum folds them into
    a running maximum that starts at 0.0; the sum with the increments is
    then written back.  Each subset reads each of its lower covers once, so
    the cost is O(n * 2**n).  The maxima are taken over the same values in
    the same order as a per-mask loop over ascending masks, and the maximum
    of two floats is exact, so the values are those of that loop bit for
    bit.
    """
    rng = _as_rng(n, seed)
    size = 1 << n
    increments = rng.uniform(0.0, 1.0, size)
    sizes = np.zeros(size, dtype=np.int8)  # |S| per mask, by prefix doubling
    for i in range(n):
        np.add(sizes[:1 << i], 1, out=sizes[1 << i:2 << i])
    values = np.zeros(size)
    for k in range(1, n + 1):
        masks = np.flatnonzero(sizes == k)
        best = np.zeros(len(masks))
        rest = masks.copy()
        for _ in range(k):
            low = rest & -rest
            np.maximum(best, values[masks ^ low], out=best)
            rest ^= low
        values[masks] = best + increments[masks]
    del sizes, increments  # not held while Capacity checks the values
    return Capacity(n, _Fresh(values))


def random_normalized_capacity(n: int, seed: SeedLike = 0) -> Capacity:
    """Monotone capacity rescaled so the full set is worth exactly 1."""
    rng = _as_rng(n, seed)
    while True:
        capacity = random_capacity(n, rng)
        top = capacity.values[-1]
        if top > 0.0:
            return Capacity(n, _Fresh(capacity.values / top))
