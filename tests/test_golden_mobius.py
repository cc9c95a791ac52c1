"""Golden Mobius-route values: the bits of `choquet_mobius` at fixed points.

`golden_mobius.json` maps each case, written `n/seed`, to the points and
the values `choquet_mobius(mobius_transform(random_signed_capacity(n,
seed)), x)` returned for them, every float as `float.hex` so that signed
zeros and last bits survive.  The points have two decimals (ties at every
n), some coordinates set to -0.0 and +0.0, one point of equal coordinates
and one of signed zeros only.

The fixture was recorded once, with the per-bit lattice recursion in
`_subset_statistic`; a change to how the subset minima are built must
reproduce it bit for bit.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from choquet.generate import random_signed_capacity
from choquet.integral import choquet_mobius
from choquet.setfunction import mobius_transform

GOLDEN_PATH = Path(__file__).with_name("golden_mobius.json")

SIZES = (4, 8, 12, 16, 20)
SEEDS = (0, 1)
POINTS = 4


def points(n: int, seed: int) -> np.ndarray:
    """Two-decimal points with signed zeros, then one tied and one all-zero point."""
    rng = np.random.default_rng([n, seed])
    x = rng.integers(-300, 301, (POINTS, n)) / 100
    x[:-2][rng.random((POINTS - 2, n)) < 0.2] = -0.0
    x[:-2][rng.random((POINTS - 2, n)) < 0.2] = 0.0
    x[-2] = rng.integers(-300, 301) / 100
    x[-1] = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    return x


def case(n: int, seed: int) -> dict:
    m = mobius_transform(random_signed_capacity(n, seed))
    xs = points(n, seed)
    return {
        "points": [[float(c).hex() for c in x] for x in xs],
        "values": [choquet_mobius(m, x).value.hex() for x in xs],
    }


CASES = [(n, seed) for n in SIZES for seed in SEEDS]


def record() -> dict:
    return {f"{n}/{seed}": case(n, seed) for n, seed in CASES}


@pytest.mark.parametrize("n, seed", CASES)
def test_choquet_mobius_reproduces_the_golden_bits(n, seed):
    golden = json.loads(GOLDEN_PATH.read_text())[f"{n}/{seed}"]
    got = case(n, seed)
    assert got["points"] == golden["points"]
    assert got["values"] == golden["values"]


def test_the_fixture_holds_every_case():
    assert sorted(json.loads(GOLDEN_PATH.read_text())) == sorted(f"{n}/{s}" for n, s in CASES)

