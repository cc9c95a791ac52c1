"""Random generators: bit-exact lock on the monotone generator, storage bound."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from choquet.errors import GroundSetTooLarge
from choquet.generate import (
    random_capacity,
    random_normalized_capacity,
    random_set_function,
    random_signed_capacity,
)


def reference_random_capacity(n, rng):
    """Per-mask construction: masks ascending, lower covers by clearing one bit."""
    size = 1 << n
    increments = rng.uniform(0.0, 1.0, size)
    values = np.zeros(size)
    for mask in range(1, size):
        best = 0.0
        rest = mask
        while rest:
            bit = rest & -rest
            best = max(best, values[mask ^ bit])
            rest ^= bit
        values[mask] = best + increments[mask]
    return values


def reference_normalized(n, seed):
    rng = np.random.default_rng(seed)
    while True:
        values = reference_random_capacity(n, rng)
        if values[-1] > 0.0:
            return values / values[-1]


@pytest.mark.parametrize(
    "seed, n", [(seed, n) for seed in (0, 1, 7, 12345) for n in range(1, 13)] + [(0, 13), (1, 14)]
)
def test_monotone_generator_matches_per_mask_reference(n, seed):
    expected = reference_random_capacity(n, np.random.default_rng(seed))
    assert random_capacity(n, seed).values.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "seed, n", [(seed, n) for seed in (0, 3, 99) for n in range(1, 13)] + [(3, 13)]
)
def test_normalized_generator_matches_per_mask_reference(n, seed):
    expected = reference_normalized(n, seed)
    assert random_normalized_capacity(n, seed).values.tobytes() == expected.tobytes()


def test_shared_generator_stream_matches_reference():
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    for n in (3, 6, 9):
        expected = reference_random_capacity(n, rng_b)
        assert random_capacity(n, rng_a).values.tobytes() == expected.tobytes()


# SHA-256 of values.tobytes(), recorded with the per-mask generator.
DIGESTS = {
    (16, 0): "6cdfa80d1c1dcc12e3769e9197191424baeef746000574e2110eba522ae91b52",
    (16, 1): "61d6f336acd2433fa3c3659c57f3b5d59a400ef334c0ecfa9c5c28476b3a7339",
    (16, 2): "ac75adf3ffc1020da8c963bb376d05df2ee302dbd65e34252217f38daf2fac1e",
    (20, 0): "d00b25fa1fc0ce24484652a128ae7239e95f5b09e1952cc494f283ea37f8288b",
}


@pytest.mark.parametrize("n, seed", sorted(DIGESTS))
def test_monotone_generator_recorded_digests(n, seed):
    values = random_capacity(n, seed).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == DIGESTS[(n, seed)]


def test_monotone_generator_peak_memory():
    # numpy reports its array memory to tracemalloc.  The layer-by-layer
    # construction holds the values, the increments, the int8 table of
    # subset sizes and one size layer's index and value arrays (at most
    # C(16, 8) / 2**16 = 20 % of the masks each) at once.
    array_bytes = 8 << 16
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        capacity = random_capacity(16, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert capacity.n == 16
    assert peak - before <= 3.4 * array_bytes


GENERATORS = [random_set_function, random_signed_capacity, random_capacity,
              random_normalized_capacity]


@pytest.mark.parametrize("generator", GENERATORS)
@pytest.mark.parametrize("n", [21, 40])
def test_oversized_ground_set_rejected_before_allocation(generator, n):
    # 2**40 doubles would be 8 TiB, and the monotone generator used to spend
    # seconds at n = 21 before the bound was checked
    with pytest.raises(GroundSetTooLarge) as info:
        generator(n, 0)
    assert info.value.n == n
    assert info.value.bound == 20
