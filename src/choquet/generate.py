"""Random set-function generators (deterministic given a seed)."""

from __future__ import annotations

from typing import Union

import numpy as np

from .setfunction import (
    Capacity, SetFunction, SignedCapacity, _ground_set, _lattice_passes, _require_seed,
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
    return SetFunction(n, rng.uniform(-1.0, 1.0, 1 << n))


def random_signed_capacity(n: int, seed: SeedLike = 0) -> SignedCapacity:
    """Game with i.i.d. uniform values on [-1, 1] and v(empty) = 0."""
    rng = _as_rng(n, seed)
    values = rng.uniform(-1.0, 1.0, 1 << n)
    values[0] = 0.0
    return SignedCapacity(n, values)


def random_capacity(n: int, seed: SeedLike = 0) -> Capacity:
    """Monotone capacity built by cumulative maxima along the lattice.

    Each nonempty subset receives the maximum of the values on its lower
    covers (the subsets one element smaller) plus a nonnegative increment,
    which guarantees every covering pair is nondecreasing.  The values are
    computed in n rounds, each one updating every mask at once from the
    values of the round before; after round k every subset of at most k
    elements holds its final value.
    """
    rng = _as_rng(n, seed)
    size = 1 << n
    increments = rng.uniform(0.0, 1.0, size)
    values = np.zeros(size)
    best = np.empty(size)
    for _ in range(n):
        best.fill(0.0)
        for (_, lo, _), (_, _, hi) in zip(_lattice_passes(values), _lattice_passes(best)):
            np.maximum(hi, lo, out=hi)
        np.add(best[1:], increments[1:], out=values[1:])
    del best, increments  # the copy Capacity makes would otherwise be a fourth 2**n array
    return Capacity(n, values)


def random_normalized_capacity(n: int, seed: SeedLike = 0) -> Capacity:
    """Monotone capacity rescaled so the full set is worth exactly 1."""
    rng = _as_rng(n, seed)
    while True:
        capacity = random_capacity(n, rng)
        top = capacity.values[-1]
        if top > 0.0:
            return Capacity(n, capacity.values / top)
